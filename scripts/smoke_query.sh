#!/usr/bin/env bash
# Query-lane smoke: boot the daemon, run a goal-directed point query
# over loopback HTTP (the magic lane must answer without materializing
# the session), assert the answer cache warms on the identical
# re-query, fetch template explanations inline (?explain=full), check
# GET explain speaks the same atom grammar and paged envelope (and
# materializes the session, after which a query is a lookup on the
# served materialization: the materialized lane), reject a malformed
# atom with the invalid_atom code, then apply a live fact update and
# assert the hot answers follow it: the retracted consequence
# disappears from a fresh (uncached) answer set and the re-add brings
# it back.  Finally scrape the ekg_query_* series.
# Usage: smoke_query.sh [path/to/serve.exe]
set -euo pipefail

SERVE="${1:-bin/serve.exe}"
LOG="$(mktemp)"

"$SERVE" --port 0 --preload company-control >"$LOG" 2>&1 &
PID=$!
trap 'kill "$PID" 2>/dev/null || true; rm -f "$LOG"' EXIT

PORT=""
for _ in $(seq 1 50); do
  PORT="$(sed -n 's#.*listening on http://[0-9.]*:\([0-9]*\).*#\1#p' "$LOG")"
  [ -n "$PORT" ] && break
  sleep 0.1
done
if [ -z "$PORT" ]; then
  echo "smoke-query: server did not start" >&2
  cat "$LOG" >&2
  exit 1
fi

BASE="http://127.0.0.1:$PORT/v1/sessions/s1"
fail() {
  echo "smoke-query: $1" >&2
  shift
  for extra in "$@"; do printf '%s\n' "$extra" >&2; done
  exit 1
}

# 1. cold point query: goal-directed, uncached, and it finds the
#    aggregated consequence control("A", "D")
BODY="$(curl -fsSG --data-urlencode 'query=control("A", X)' "$BASE/query")"
grep -q '"mode":"magic"' <<<"$BODY" \
  || fail "cold query did not take the magic lane" "$BODY"
grep -q '"cached":false' <<<"$BODY" \
  || fail "cold query claims to be cached" "$BODY"
grep -qF 'control(\"A\", \"D\")' <<<"$BODY" \
  || fail "cold query is missing control(A, D)" "$BODY"
grep -q '"next_cursor"' <<<"$BODY" \
  || fail "query response is missing the paged envelope" "$BODY"

# 2. the identical re-query is served from the per-session answer cache
BODY="$(curl -fsSG --data-urlencode 'query=control("A", X)' "$BASE/query")"
grep -q '"cached":true' <<<"$BODY" \
  || fail "identical re-query was not served from the cache" "$BODY"
grep -q '"rewrite_cached":true' <<<"$BODY" \
  || fail "re-query recomputed the magic-sets rewrite" "$BODY"

# 3. inline explanations: every answer carries its template proof
BODY="$(curl -fsSG --data-urlencode 'query=control("A", X)' \
  --data-urlencode 'explain=full' "$BASE/query")"
grep -q '"explanation"' <<<"$BODY" \
  || fail "explain=full returned no explanations" "$BODY"
grep -q 'exercises control over' <<<"$BODY" \
  || fail "explanation text is not verbalized" "$BODY"

# 4. GET explain: same grammar, same paged envelope
BODY="$(curl -fsSG --data-urlencode 'query=control("A", "D")' "$BASE/explain")"
grep -q '"explanations"' <<<"$BODY" \
  || fail "GET explain returned no explanations" "$BODY"
grep -q '"next_cursor"' <<<"$BODY" \
  || fail "GET explain is missing the paged envelope" "$BODY"

# 4b. the explanation materialized the session: the same point query is
#     now a lookup on the served materialization
BODY="$(curl -fsSG --data-urlencode 'query=control("A", X)' "$BASE/query")"
grep -q '"mode":"materialized"' <<<"$BODY" \
  || fail "query on the hot session did not take the materialized lane" "$BODY"
grep -qF 'control(\"A\", \"D\")' <<<"$BODY" \
  || fail "materialized lane is missing control(A, D)" "$BODY"

# 5. a malformed atom answers 400 with the machine-readable code, on
#    both read endpoints
for endpoint in query explain; do
  STATUS="$(curl -sSG -o /tmp/smoke_query_body.$$ -w '%{http_code}' \
    --data-urlencode 'query=broken(' "$BASE/$endpoint")"
  [ "$STATUS" = "400" ] \
    || fail "$endpoint accepted a malformed atom (status $STATUS)"
  grep -q '"code":"invalid_atom"' /tmp/smoke_query_body.$$ \
    || fail "$endpoint did not answer invalid_atom" "$(cat /tmp/smoke_query_body.$$)"
  rm -f /tmp/smoke_query_body.$$
done

# 6. live update invalidation: retract E's stake (the sum drops below
#    the control threshold), and a fresh — not cached — answer set, read
#    from the updated materialization, no longer carries control(A, D);
#    the re-add restores it
curl -fsS -X DELETE -d '{"facts":["own(\"E\", \"D\", 0.25)"]}' \
  "$BASE/facts" >/dev/null
BODY="$(curl -fsSG --data-urlencode 'query=control("A", X)' "$BASE/query")"
grep -q '"mode":"materialized"' <<<"$BODY" \
  || fail "query after the retraction left the materialized lane" "$BODY"
grep -q '"cached":false' <<<"$BODY" \
  || fail "update did not invalidate the cached answers" "$BODY"
grep -qF 'control(\"A\", \"D\")' <<<"$BODY" \
  && fail "retracted consequence still answered" "$BODY"
curl -fsS -X POST -d '{"facts":["own(\"E\", \"D\", 0.25)"]}' \
  "$BASE/facts" >/dev/null
BODY="$(curl -fsSG --data-urlencode 'query=control("A", X)' "$BASE/query")"
grep -q '"mode":"materialized"' <<<"$BODY" \
  || fail "query after the re-add left the materialized lane" "$BODY"
grep -qF 'control(\"A\", \"D\")' <<<"$BODY" \
  || fail "re-added consequence did not come back" "$BODY"

# 7. the lane's counter series are present and advanced
METRICS="$(curl -fsS -H 'Accept: text/plain' "http://127.0.0.1:$PORT/v1/metrics")"
for series in ekg_query_requests_total ekg_query_rewrite_cache_hits_total \
              ekg_query_answer_cache_hits_total ekg_query_cache_invalidations_total \
              ekg_query_materialized_total; do
  grep -q "^$series" <<<"$METRICS" \
    || fail "/v1/metrics is missing mandatory series $series" "$METRICS"
  grep -q "^$series 0$" <<<"$METRICS" \
    && fail "series $series never advanced" "$METRICS"
done

kill "$PID"
wait "$PID" 2>/dev/null || true
echo "smoke-query: ok (magic lane, caches, materialized lane, invalidation, invalid_atom, metrics)"
