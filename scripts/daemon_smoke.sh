#!/bin/sh
# daemon_smoke.sh — black-box smoke test of the qulrbd serving daemon.
#
# Builds qulrbd, starts it on an ephemeral-ish port, submits a real LRP
# instance over HTTP, polls the job to completion, asserts the plan
# verified and /metrics is populated, then sends SIGTERM and requires a
# clean graceful drain (exit 0). Fails loudly at the first broken step.
#
# POSIX sh + curl only; no jq dependency (grep-based JSON probing).
set -eu

ADDR="${QULRBD_ADDR:-127.0.0.1:18321}"
BASE="http://$ADDR"
BINDIR="$(mktemp -d)"
BIN="$BINDIR/qulrbd"
LOG="$(mktemp)"
STATE="$(mktemp -d)"
PID=

# One exit path for every outcome: stop a daemon still running and
# remove everything this script created.
cleanup() {
    if [ -n "$PID" ]; then
        kill -9 "$PID" 2>/dev/null || true
        wait "$PID" 2>/dev/null || true
    fi
    rm -rf "$BINDIR" "$LOG" "$STATE"
}
trap cleanup EXIT

fail() {
    echo "daemon-smoke: FAIL: $*" >&2
    echo "--- qulrbd log ---" >&2
    cat "$LOG" >&2 || true
    exit 1
}

echo "daemon-smoke: building qulrbd"
go build -o "$BIN" ./cmd/qulrbd

"$BIN" -addr "$ADDR" -workers 2 -timeout 2s >"$LOG" 2>&1 &
PID=$!

# Wait for the listener (the daemon prints its address when ready).
i=0
until curl -fsS "$BASE/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    [ "$i" -gt 50 ] && fail "daemon did not come up within 5s"
    kill -0 "$PID" 2>/dev/null || fail "daemon exited during startup"
    sleep 0.1
done
grep -q "listening on" "$LOG" || fail "startup banner missing"
echo "daemon-smoke: up at $BASE"

# Submit a real instance: uniform task counts, imbalance in the weights.
RESP="$(curl -fsS -X POST "$BASE/solve" \
    -H 'Content-Type: application/json' \
    -d '{"tasks":[4,4,4],"weights":[8,2,2],"budget_ms":2000}')" \
    || fail "POST /solve rejected"
JOB="$(printf '%s' "$RESP" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')"
[ -n "$JOB" ] || fail "no job id in response: $RESP"
echo "daemon-smoke: submitted $JOB"

# Poll to completion.
i=0
while :; do
    BODY="$(curl -fsS "$BASE/jobs/$JOB")" || fail "GET /jobs/$JOB"
    case "$BODY" in
    *'"status":"done"'*) break ;;
    *'"status":"failed"'* | *'"status":"rejected"'*) fail "job failed: $BODY" ;;
    esac
    i=$((i + 1))
    [ "$i" -gt 100 ] && fail "job did not finish within 10s: $BODY"
    sleep 0.1
done
printf '%s' "$BODY" | grep -q '"plan"' || fail "done job has no plan: $BODY"
printf '%s' "$BODY" | grep -q '"imbalance_after"' || fail "done job has no metrics: $BODY"
echo "daemon-smoke: job done"

# Overload admission must answer with 429, not hang or 500: exhaust the
# default token bucket (rate 10/s, burst 20) and expect a rejection.
CODE=200
i=0
while [ "$i" -lt 40 ] && [ "$CODE" != 429 ]; do
    CODE="$(curl -s -o /dev/null -w '%{http_code}' -X POST "$BASE/solve" \
        -d '{"tasks":[2,2],"budget_ms":100}')"
    i=$((i + 1))
done
[ "$CODE" = 429 ] || fail "no 429 under burst (last code $CODE)"
echo "daemon-smoke: overload answered 429"

# Metrics must be non-empty and carry the serving counters.
METRICS="$(curl -fsS "$BASE/metrics")" || fail "GET /metrics"
printf '%s' "$METRICS" | grep -q 'serve.accepted' || fail "/metrics missing serve counters"
printf '%s' "$METRICS" | grep -q 'route.backend' || fail "/metrics missing route gauges"
# The router publishes only what it observed itself.
if printf '%s\n' "$METRICS" | grep -q 'hedge\.'; then
    fail "/metrics carries hedge lines: $(printf '%s\n' "$METRICS" | grep 'hedge\.')"
fi

# Graceful shutdown: SIGTERM → drain → exit 0.
kill -TERM "$PID"
i=0
while kill -0 "$PID" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && fail "daemon did not exit within 10s of SIGTERM"
    sleep 0.1
done
set +e
wait "$PID"
STATUS=$?
set -e
[ "$STATUS" = 0 ] || fail "daemon exit status $STATUS after SIGTERM"
grep -q "drained cleanly" "$LOG" || fail "drain banner missing"

# Crash-safe durability: run with -state-dir and a plan cache, finish a
# job, SIGKILL the daemon (no drain, no dying gasp), restart on the same
# directory. The finished job must still be queryable with its plan
# intact and carry the recovered flag — the journal, not the process,
# owns the record — and the plan cache must get back exactly its own
# one entry: its log shares the directory with the job journal but
# never a segment file.
echo "daemon-smoke: durability phase (state dir $STATE)"
"$BIN" -addr "$ADDR" -workers 2 -timeout 2s -cache 16 -state-dir "$STATE" >"$LOG" 2>&1 &
PID=$!
i=0
until curl -fsS "$BASE/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    [ "$i" -gt 50 ] && fail "durable daemon did not come up within 5s"
    kill -0 "$PID" 2>/dev/null || fail "durable daemon exited during startup"
    sleep 0.1
done

RESP="$(curl -fsS -X POST "$BASE/solve" \
    -H 'Content-Type: application/json' \
    -d '{"tasks":[4,4,4],"weights":[8,2,2],"budget_ms":2000}')" \
    || fail "POST /solve (durable) rejected"
JOB="$(printf '%s' "$RESP" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')"
[ -n "$JOB" ] || fail "no job id in durable response: $RESP"
i=0
while :; do
    BODY="$(curl -fsS "$BASE/jobs/$JOB")" || fail "GET /jobs/$JOB (durable)"
    case "$BODY" in
    *'"status":"done"'*) break ;;
    *'"status":"failed"'* | *'"status":"rejected"'*) fail "durable job failed: $BODY" ;;
    esac
    i=$((i + 1))
    [ "$i" -gt 100 ] && fail "durable job did not finish within 10s: $BODY"
    sleep 0.1
done
# The job journal fsyncs per -fsync; the plan-cache log never fsyncs a
# put (a lost put costs a re-solve, not a result), so its sync counter
# stays 0 even though the solve journaled one cache entry.
METRICS="$(curl -fsS "$BASE/metrics")" || fail "GET /metrics (durable)"
printf '%s\n' "$METRICS" | grep -Eq '^counter +wal\.plancache\.appends +[1-9]' ||
    fail "plan cache journaled no entry: $(printf '%s\n' "$METRICS" | grep 'wal\.plancache\.appends')"
printf '%s\n' "$METRICS" | grep -Eq '^counter +wal\.plancache\.syncs +0 *$' ||
    fail "plan-cache put was fsynced: $(printf '%s\n' "$METRICS" | grep 'wal\.plancache\.syncs')"
echo "daemon-smoke: job $JOB done, cache put unsynced; kill -9"

kill -9 "$PID"
set +e
wait "$PID" 2>/dev/null
set -e

"$BIN" -addr "$ADDR" -workers 2 -timeout 2s -cache 16 -state-dir "$STATE" >"$LOG" 2>&1 &
PID=$!
i=0
until curl -fsS "$BASE/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    [ "$i" -gt 50 ] && fail "daemon did not restart on the state dir within 5s"
    kill -0 "$PID" 2>/dev/null || fail "daemon crashed replaying its own journal"
    sleep 0.1
done
grep -q "recovered" "$LOG" || fail "recovery banner missing after restart"
grep -q "plan cache restored 1 entries (0 rejected)" "$LOG" ||
    fail "plan cache did not restore exactly its one entry after restart"

BODY="$(curl -fsS "$BASE/jobs/$JOB")" || fail "job $JOB lost across kill -9"
printf '%s' "$BODY" | grep -q '"status":"done"' || fail "recovered job not done: $BODY"
printf '%s' "$BODY" | grep -q '"plan"' || fail "recovered job has no plan: $BODY"
printf '%s' "$BODY" | grep -q '"recovered":true' || fail "recovered job not flagged: $BODY"
echo "daemon-smoke: job survived kill -9"

kill -TERM "$PID"
i=0
while kill -0 "$PID" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && fail "durable daemon did not exit within 10s of SIGTERM"
    sleep 0.1
done
set +e
wait "$PID"
STATUS=$?
set -e
[ "$STATUS" = 0 ] || fail "durable daemon exit status $STATUS after SIGTERM"
PID=

echo "daemon-smoke: PASS"
