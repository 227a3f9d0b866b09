#!/usr/bin/env bash
# Server smoke test: boot the daemon on an ephemeral port, hit
# /v1/health, scrape /v1/metrics in Prometheus format (the mandatory
# series must be present) and as JSON, check the legacy paths answer
# 301 with a Location header, exercise the live fact-update walkthrough, scrape
# the /v1/debug surface, check the wide-event JSONL log, shut it down
# gracefully.
# Usage: smoke.sh [path/to/serve.exe]
set -euo pipefail

SERVE="${1:-bin/serve.exe}"
LOG="$(mktemp)"
WIDELOG="$(mktemp)"

"$SERVE" --port 0 --preload company-control \
  --log-file "$WIDELOG" --log-level info --slowlog-threshold-ms 250 \
  >"$LOG" 2>&1 &
PID=$!
trap 'kill "$PID" 2>/dev/null || true; rm -f "$LOG" "$WIDELOG"' EXIT

PORT=""
for _ in $(seq 1 50); do
  PORT="$(sed -n 's#.*listening on http://[0-9.]*:\([0-9]*\).*#\1#p' "$LOG")"
  [ -n "$PORT" ] && break
  sleep 0.1
done
if [ -z "$PORT" ]; then
  echo "smoke: server did not start" >&2
  cat "$LOG" >&2
  exit 1
fi

BODY="$(curl -fsS "http://127.0.0.1:$PORT/v1/health")"
if ! grep -q '"status":"ok"' <<<"$BODY"; then
  echo "smoke: unexpected /v1/health body: $BODY" >&2
  exit 1
fi

# the pre-/v1 paths must answer 301 + Location + Deprecation
LEGACY="$(curl -sS -D - -o /dev/null "http://127.0.0.1:$PORT/health")"
if ! grep -q '^HTTP/1.1 301' <<<"$LEGACY"; then
  echo "smoke: legacy /health did not redirect: $LEGACY" >&2
  exit 1
fi
if ! grep -qi '^Location: /v1/health' <<<"$LEGACY"; then
  echo "smoke: legacy redirect is missing Location: /v1/health" >&2
  exit 1
fi
if ! grep -qi '^Deprecation: true' <<<"$LEGACY"; then
  echo "smoke: legacy redirect is missing Deprecation: true" >&2
  exit 1
fi

METRICS="$(curl -fsS -H 'Accept: text/plain' "http://127.0.0.1:$PORT/v1/metrics")"
if ! grep -q '^# TYPE ekg_requests_total counter' <<<"$METRICS"; then
  echo "smoke: /v1/metrics did not negotiate Prometheus text format" >&2
  printf '%s\n' "$METRICS" >&2
  exit 1
fi
for series in ekg_requests_total ekg_chase_rounds_total \
              ekg_server_shed_total ekg_request_deadline_exceeded_total \
              ekg_chase_incremental_rounds_total ekg_chase_retracted_facts_total; do
  if ! grep -q "^$series" <<<"$METRICS"; then
    echo "smoke: /v1/metrics is missing mandatory series $series" >&2
    printf '%s\n' "$METRICS" >&2
    exit 1
  fi
done

# the default form is JSON, read from the same registry
METRICS_JSON="$(curl -fsS "http://127.0.0.1:$PORT/v1/metrics")"
for key in '"requests_total"' '"session_cache"' '"endpoints"'; do
  if ! grep -qF "$key" <<<"$METRICS_JSON"; then
    echo "smoke: JSON /v1/metrics is missing $key: $METRICS_JSON" >&2
    exit 1
  fi
done

# --- live fact updates: the runnable walkthrough ---------------------------
# This block executes examples/incremental_walkthrough.md against the
# preloaded company-control session (s1): control("A", "D") holds through
# B (0.30) and E (0.25); retracting E's stake drops the sum to 0.30 and
# the explanation disappears, re-adding it brings the explanation back.
BASE="http://127.0.0.1:$PORT/v1/sessions/s1"
QUERY='{"query":"control(\"A\", \"D\")"}'
STAKE='{"facts":["own(\"E\", \"D\", 0.25)"]}'

BODY="$(curl -fsS -X POST -d "$QUERY" "$BASE/explain")"
if ! grep -q 'exercises control over' <<<"$BODY"; then
  echo "smoke: control(\"A\", \"D\") not explained before retraction: $BODY" >&2
  exit 1
fi

BODY="$(curl -fsS -X DELETE -d "$STAKE" "$BASE/facts")"
if ! grep -q '"op":"retract"' <<<"$BODY"; then
  echo "smoke: retraction did not apply: $BODY" >&2
  exit 1
fi

STATUS="$(curl -sS -o /dev/null -w '%{http_code}' -X POST -d "$QUERY" "$BASE/explain")"
if [ "$STATUS" != "404" ]; then
  echo "smoke: control(\"A\", \"D\") still explained after retraction (HTTP $STATUS)" >&2
  exit 1
fi

BODY="$(curl -fsS -X POST -d "$STAKE" "$BASE/facts")"
if ! grep -q '"op":"add"' <<<"$BODY"; then
  echo "smoke: re-addition did not apply: $BODY" >&2
  exit 1
fi

BODY="$(curl -fsS -X POST -d "$QUERY" "$BASE/explain")"
if ! grep -q 'exercises control over' <<<"$BODY"; then
  echo "smoke: control(\"A\", \"D\") not restored after re-addition: $BODY" >&2
  exit 1
fi

# --- debug introspection + wide-event log ----------------------------------
BODY="$(curl -fsS "http://127.0.0.1:$PORT/v1/debug/runtime")"
for key in '"uptime_seconds"' '"gauges"' 'ekg_runtime_gc_heap_words' \
           'ekg_server_workers'; do
  if ! grep -q "$key" <<<"$BODY"; then
    echo "smoke: /v1/debug/runtime is missing $key: $BODY" >&2
    exit 1
  fi
done

BODY="$(curl -fsS "http://127.0.0.1:$PORT/v1/debug/sessions")"
if ! grep -q '"id":"s1"' <<<"$BODY"; then
  echo "smoke: /v1/debug/sessions does not list the preloaded session: $BODY" >&2
  exit 1
fi

STATUS="$(curl -sS -o /dev/null -w '%{http_code}' "http://127.0.0.1:$PORT/v1/debug/slowlog")"
if [ "$STATUS" != "200" ]; then
  echo "smoke: /v1/debug/slowlog answered HTTP $STATUS" >&2
  exit 1
fi

# the registry/snapshotter lock histograms must render in the scrape
METRICS="$(curl -fsS -H 'Accept: text/plain' "http://127.0.0.1:$PORT/v1/metrics")"
for series in 'ekg_lock_wait_seconds_count{lock="registry"}' \
              'ekg_lock_hold_seconds_count{lock="registry"}'; do
  if ! grep -qF "$series" <<<"$METRICS"; then
    echo "smoke: /v1/metrics is missing lock series $series" >&2
    exit 1
  fi
done

# one well-formed wide event per request: every line is a JSON object
# carrying the canonical fields
if ! [ -s "$WIDELOG" ]; then
  echo "smoke: wide-event log $WIDELOG is empty" >&2
  exit 1
fi
while IFS= read -r line; do
  case "$line" in
    "{"*"}") ;;
    *) echo "smoke: wide-event line is not a JSON object: $line" >&2; exit 1 ;;
  esac
  for key in '"trace_id":' '"endpoint":' '"status":' '"queue_wait_ms":' \
             '"chase_source":' '"gc_minor_collections":'; do
    if ! grep -qF "$key" <<<"$line"; then
      echo "smoke: wide event is missing $key: $line" >&2
      exit 1
    fi
  done
done <"$WIDELOG"
EVENTS="$(wc -l <"$WIDELOG")"
if [ "$EVENTS" -lt 5 ]; then
  echo "smoke: expected at least 5 wide events, got $EVENTS" >&2
  exit 1
fi
if ! grep -q '"endpoint":"POST /v1/sessions/:id/explain"' "$WIDELOG"; then
  echo "smoke: no wide event for the explain requests" >&2
  exit 1
fi

kill -TERM "$PID"
wait "$PID"
echo "smoke: ok (/v1/health + Prometheus /v1/metrics + legacy 301 + live fact updates + /v1/debug + $EVENTS wide events on port $PORT)"
