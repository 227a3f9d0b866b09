#!/usr/bin/env bash
# Fault-injection smoke drills: boot the daemon under each injected
# fault and check the degradation contract end to end.
#
#   0. --chase-domains 2: the chase is sequential, so the daemon refuses
#      any value but 1 and exits 1 before it binds a port.
#   1. delay fault + queue-high-water 0: every session request is shed
#      with 503 + Retry-After + the "overloaded" envelope while
#      /v1/health keeps answering 200, and ekg_server_shed_total
#      advances on /v1/metrics.
#   2. slow-chase fault + X-Ekg-Deadline-Ms: the explain request comes
#      back 504 "deadline_exceeded" (retryable, with partial chase
#      stats) well before the fault would finish, and
#      ekg_request_deadline_exceeded_total advances.
#
# Usage: smoke_faults.sh [path/to/serve.exe]
set -euo pipefail

SERVE="${1:-bin/serve.exe}"

boot() {
  # boot "$LOG" serve-args... ; sets PID and PORT
  local log="$1"
  shift
  "$@" >"$log" 2>&1 &
  PID=$!
  PORT=""
  for _ in $(seq 1 50); do
    PORT="$(sed -n 's#.*listening on http://[0-9.]*:\([0-9]*\).*#\1#p' "$log")"
    [ -n "$PORT" ] && break
    sleep 0.1
  done
  if [ -z "$PORT" ]; then
    echo "smoke-faults: server did not start" >&2
    cat "$log" >&2
    exit 1
  fi
}

fail() {
  echo "smoke-faults: $1" >&2
  shift
  for extra in "$@"; do printf '%s\n' "$extra" >&2; done
  exit 1
}

LOG1="$(mktemp)"
LOG2="$(mktemp)"
PID=""
trap 'kill "$PID" 2>/dev/null || true; rm -f "$LOG1" "$LOG2"' EXIT

# --- drill 0: only a sequential chase ---------------------------------------
CODE=0
timeout 10 "$SERVE" --port 0 --chase-domains 2 >"$LOG1" 2>&1 || CODE=$?
[ "$CODE" = 1 ] || fail "--chase-domains 2 exited $CODE, expected 1" "$(cat "$LOG1")"
grep -q 'the chase is sequential' "$LOG1" \
  || fail "--chase-domains 2 did not name the sequential chase" "$(cat "$LOG1")"
if grep -q 'listening on' "$LOG1"; then
  fail "--chase-domains 2 bound a port before refusing" "$(cat "$LOG1")"
fi

# --- drill 1: load shedding under a delay fault -----------------------------
# EKG_FAULT exercises the environment-variable path of the fault flag.
EKG_FAULT=delay:300 boot "$LOG1" \
  "$SERVE" --port 0 --domains 1 --queue-high-water 0
if ! grep -q 'fault injection active: delay' "$LOG1"; then
  fail "daemon did not report the delay fault" "$(cat "$LOG1")"
fi

SHED_HEAD="$(curl -sS -D - -o /tmp/shed_body.$$ \
  -X POST -d '{"program":"p(\"a\"). @goal(p)."}' \
  "http://127.0.0.1:$PORT/v1/sessions")"
SHED_BODY="$(cat /tmp/shed_body.$$; rm -f /tmp/shed_body.$$)"
grep -q '^HTTP/1.1 503' <<<"$SHED_HEAD" \
  || fail "session request was not shed with 503" "$SHED_HEAD"
grep -qi '^Retry-After:' <<<"$SHED_HEAD" \
  || fail "shed response is missing Retry-After" "$SHED_HEAD"
grep -q '"code":"overloaded"' <<<"$SHED_BODY" \
  || fail "shed response is missing the overloaded envelope" "$SHED_BODY"

HEALTH="$(curl -fsS "http://127.0.0.1:$PORT/v1/health")"
grep -q '"status":"ok"' <<<"$HEALTH" \
  || fail "/v1/health was not responsive while shedding" "$HEALTH"

METRICS="$(curl -fsS -H 'Accept: text/plain' "http://127.0.0.1:$PORT/v1/metrics")"
grep -q '^ekg_server_shed_total [1-9]' <<<"$METRICS" \
  || fail "ekg_server_shed_total did not advance" "$METRICS"

kill -TERM "$PID"
wait "$PID" || true

# --- drill 2: deadline exceeded mid-chase under a slow-chase fault ----------
boot "$LOG2" "$SERVE" --port 0 --fault slow-chase:5000 --preload company-control
if ! grep -q 'fault injection active: slow-chase' "$LOG2"; then
  fail "daemon did not report the slow-chase fault" "$(cat "$LOG2")"
fi

T0="$(date +%s%N)"
CODE="$(curl -sS -o /tmp/dl_body.$$ -w '%{http_code}' \
  -X POST -H 'X-Ekg-Deadline-Ms: 50' \
  -d '{"query":"control(\"A\", \"D\")"}' \
  "http://127.0.0.1:$PORT/v1/sessions/s1/explain")"
ELAPSED_MS=$(( ($(date +%s%N) - T0) / 1000000 ))
DL_BODY="$(cat /tmp/dl_body.$$; rm -f /tmp/dl_body.$$)"
[ "$CODE" = 504 ] || fail "expected 504 under a 50ms deadline, got $CODE" "$DL_BODY"
grep -q '"code":"deadline_exceeded"' <<<"$DL_BODY" \
  || fail "504 body is missing the deadline_exceeded envelope" "$DL_BODY"
grep -q '"retryable":true' <<<"$DL_BODY" \
  || fail "deadline_exceeded must be retryable" "$DL_BODY"
# the fault would hold the chase for 5s; the deadline must cut it short
[ "$ELAPSED_MS" -lt 2000 ] \
  || fail "504 took ${ELAPSED_MS}ms — deadline did not interrupt the chase"

METRICS="$(curl -fsS -H 'Accept: text/plain' "http://127.0.0.1:$PORT/v1/metrics")"
grep -q '^ekg_request_deadline_exceeded_total [1-9]' <<<"$METRICS" \
  || fail "ekg_request_deadline_exceeded_total did not advance" "$METRICS"

kill -TERM "$PID"
wait "$PID" || true

echo "smoke-faults: ok (chase-domains refusal + shedding + deadline drills, ${ELAPSED_MS}ms to 504)"
