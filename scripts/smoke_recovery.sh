#!/usr/bin/env bash
# Restart-recovery smoke test: boot the daemon with a session store,
# create a session and materialize it with one explanation, kill the
# process, restart it on the same --store-dir, and assert that
#   (a) the session is recovered (listed dormant, original id),
#   (b) the same explanation is served again, and
#   (c) it is served WITHOUT re-running the chase — the restored
#       process answers with ekg_chase_rounds_total still at 0,
#       i.e. the materialization came from the snapshot, not a
#       recompute (the warm-restore path of ARCHITECTURE.md §4).
# Usage: smoke_recovery.sh [path/to/serve.exe]
set -euo pipefail

SERVE="${1:-bin/serve.exe}"
STORE="$(mktemp -d)"
LOG1="$(mktemp)"
LOG2="$(mktemp)"
PID=""
cleanup() {
  [ -n "$PID" ] && kill "$PID" 2>/dev/null || true
  rm -rf "$STORE" "$LOG1" "$LOG2"
}
trap cleanup EXIT

wait_port() { # wait_port LOGFILE -> echoes port
  local port=""
  for _ in $(seq 1 50); do
    port="$(sed -n 's#.*listening on http://[0-9.]*:\([0-9]*\).*#\1#p' "$1")"
    [ -n "$port" ] && break
    sleep 0.1
  done
  if [ -z "$port" ]; then
    echo "smoke-recovery: server did not start" >&2
    cat "$1" >&2
    exit 1
  fi
  echo "$port"
}

QUERY='{"query":"control(\"A\", \"D\")"}'

# --- first lifetime: create, materialize, snapshot ------------------------
# --snapshot sync so the snapshot is durable the moment the request
# returns — the kill below needs no grace period.
"$SERVE" --port 0 --store-dir "$STORE" --snapshot sync >"$LOG1" 2>&1 &
PID=$!
PORT="$(wait_port "$LOG1")"
BASE="http://127.0.0.1:$PORT/v1"

BODY="$(curl -fsS -X POST -d '{"app":"company-control","name":"cc"}' "$BASE/sessions")"
if ! grep -q '"id":"s1"' <<<"$BODY"; then
  echo "smoke-recovery: session create did not return s1: $BODY" >&2
  exit 1
fi

FIRST="$(curl -fsS -X POST -d "$QUERY" "$BASE/sessions/s1/explain")"
if ! grep -q 'exercises control over' <<<"$FIRST"; then
  echo "smoke-recovery: explanation missing before restart: $FIRST" >&2
  exit 1
fi

if [ ! -s "$STORE/s1.snap" ]; then
  echo "smoke-recovery: no snapshot written to $STORE/s1.snap" >&2
  ls -la "$STORE" >&2
  exit 1
fi

kill -TERM "$PID"
wait "$PID"
PID=""

# --- second lifetime: recover from the store ------------------------------
"$SERVE" --port 0 --store-dir "$STORE" >"$LOG2" 2>&1 &
PID=$!
PORT="$(wait_port "$LOG2")"
BASE="http://127.0.0.1:$PORT/v1"

if ! grep -q 'recovered session s1' "$LOG2"; then
  echo "smoke-recovery: restarted daemon did not recover s1" >&2
  cat "$LOG2" >&2
  exit 1
fi

BODY="$(curl -fsS "$BASE/sessions")"
if ! grep -q '"id":"s1"' <<<"$BODY"; then
  echo "smoke-recovery: recovered session not listed: $BODY" >&2
  exit 1
fi
if ! grep -q '"tier":"dormant"' <<<"$BODY"; then
  echo "smoke-recovery: recovered session is not dormant: $BODY" >&2
  exit 1
fi

SECOND="$(curl -fsS -X POST -d "$QUERY" "$BASE/sessions/s1/explain")"
if ! grep -q 'exercises control over' <<<"$SECOND"; then
  echo "smoke-recovery: explanation missing after restart: $SECOND" >&2
  exit 1
fi

# warm restore, not re-chase: the restarted process must have run zero
# chase rounds to serve that explanation
METRICS="$(curl -fsS -H 'Accept: text/plain' "$BASE/metrics")"
ROUNDS="$(printf '%s\n' "$METRICS" | awk '/^ekg_chase_rounds_total /{print $2}')"
if [ "${ROUNDS:-missing}" != "0" ]; then
  echo "smoke-recovery: expected ekg_chase_rounds_total 0 after warm restore, got '$ROUNDS'" >&2
  exit 1
fi

# and the recovery counter must say one session came back from disk
RECOVERED="$(printf '%s\n' "$METRICS" | awk '/^ekg_store_recovered_sessions_total /{print $2}')"
if [ "${RECOVERED:-missing}" != "1" ]; then
  echo "smoke-recovery: expected ekg_store_recovered_sessions_total 1, got '$RECOVERED'" >&2
  exit 1
fi

kill -TERM "$PID"
wait "$PID"
PID=""
echo "smoke-recovery: ok (s1 recovered dormant, explanation served with 0 chase rounds)"
