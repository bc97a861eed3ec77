#!/bin/sh
# serve_smoke.sh — end-to-end smoke test of the serving subsystem:
# start fpcd on a local port, fire a short fpcload burst at it, check the
# registry's submit-or-hit path over /run and /call/{hash}, scrape
# /metrics, and assert the pool actually served runs. A second phase
# starts a tenant-sharded fpcd, saturates it as tenant A, and asserts
# tenant B rode through with zero sheds and untouched latency. A third
# phase exercises parked sessions: fpcload drives /session park/resume
# chains asserting byte-identity with the uninterrupted run, then a
# capacity-1 session table is walked through park -> evict -> resume-404
# -> re-submit.
set -eu

PORT="${FPCD_PORT:-18080}"
PORT2="${FPCD_PORT2:-18081}"
PORT3="${FPCD_PORT3:-18082}"
ADDR="http://127.0.0.1:$PORT"
ADDR2="http://127.0.0.1:$PORT2"
ADDR3="http://127.0.0.1:$PORT3"
BIN="$(mktemp -d)"
trap 'kill "$FPCD_PID" 2>/dev/null || true; kill "$FPCD2_PID" 2>/dev/null || true; kill "$FPCD3_PID" 2>/dev/null || true; rm -rf "$BIN"' EXIT INT TERM

go build -o "$BIN/fpcd" ./cmd/fpcd
go build -o "$BIN/fpcload" ./cmd/fpcload

"$BIN/fpcd" -addr "127.0.0.1:$PORT" &
FPCD_PID=$!

# Wait for the daemon to come up.
i=0
until curl -fsS "$ADDR/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -gt 50 ]; then
        echo "serve-smoke: fpcd never became healthy" >&2
        exit 1
    fi
    sleep 0.1
done

"$BIN/fpcload" -addr "$ADDR" -proc serve.fib -args 15 -workers 4 -n 200

METRICS="$(curl -fsS "$ADDR/metrics")"
RUNS="$(printf '%s\n' "$METRICS" | awk '$1 == "fpc_pool_runs_total" {print $2}')"
echo "serve-smoke: fpc_pool_runs_total = ${RUNS:-<missing>}"
if [ -z "$RUNS" ] || [ "$RUNS" -lt 200 ]; then
    echo "serve-smoke: expected >= 200 pooled runs in /metrics" >&2
    exit 1
fi

# Submit-or-hit over /run: the same program submitted twice must pay the
# load path once — the second response reports cached:true with the same
# content hash, and /call/{hash} invokes the cached image directly.
RUN_BODY='{"modules":{"m":"module m; proc main(n) { return n + 7; }"},"entry":"m.main","args":[5]}'
FIRST="$(curl -fsS -X POST -d "$RUN_BODY" "$ADDR/run")"
SECOND="$(curl -fsS -X POST -d "$RUN_BODY" "$ADDR/run")"
case "$SECOND" in
    *'"cached":true'*) ;;
    *) echo "serve-smoke: repeat /run not served from cache: $SECOND" >&2; exit 1 ;;
esac
HASH="$(printf '%s\n' "$FIRST" | sed -n 's/.*"hash":"\([0-9a-f]\{64\}\)".*/\1/p')"
if [ -z "$HASH" ]; then
    echo "serve-smoke: /run response carries no content hash: $FIRST" >&2
    exit 1
fi
BYHASH="$(curl -fsS -X POST -d '{"args":[10]}' "$ADDR/call/$HASH")"
case "$BYHASH" in
    *'"results":[17]'*) ;;
    *) echo "serve-smoke: /call/$HASH wrong answer: $BYHASH" >&2; exit 1 ;;
esac
MISSES="$(curl -fsS "$ADDR/metrics" | awk '$1 == "fpc_registry_misses_total" {print $2}')"
if [ "${MISSES:-0}" -ne 1 ]; then
    echo "serve-smoke: expected exactly 1 registry miss for 2 submissions, got ${MISSES:-<missing>}" >&2
    exit 1
fi
echo "serve-smoke: registry submit-or-hit OK (hash ${HASH%"${HASH#????????}"}…, 1 miss)"

# A program that stores through a caller-passed record pointer is
# admitted like any other and answers through /run.
POKE_BODY='{"modules":{"u":"module u; proc poke(p, v) { store(p, v); } proc main(n) { var a = alloc(4); poke(a, n); var v = load(a); dealloc(a); return v; }"},"entry":"u.main","args":[9]}'
POKE="$(curl -fsS -X POST -d "$POKE_BODY" "$ADDR/run")"
case "$POKE" in
    *'"results":[9]'*) ;;
    *) echo "serve-smoke: record-store /run wrong answer: $POKE" >&2; exit 1 ;;
esac

# Graceful drain: SIGTERM must finish cleanly.
kill -TERM "$FPCD_PID"
wait "$FPCD_PID"

# ---- Multi-tenant phase: tenant A saturates, tenant B is untouched ----
"$BIN/fpcd" -addr "127.0.0.1:$PORT2" -inflight 4 -tenant-inflight 2 -tenant-queue 2 \
    -queue-timeout 250ms -budget 50000000 -max-budget 50000000 &
FPCD2_PID=$!
i=0
until curl -fsS "$ADDR2/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -gt 50 ]; then
        echo "serve-smoke: tenant-phase fpcd never became healthy" >&2
        exit 1
    fi
    sleep 0.1
done

# Tenant A: 8 workers of ~0.5s spin calls against a 2-token shard — a
# sustained overload that must shed (429/503) from A's own queue.
"$BIN/fpcload" -addr "$ADDR2" -tenant A -proc serve.spin -args 30000 -workers 8 -d 4s \
    > "$BIN/loadA.out" 2>&1 &
LOAD_A_PID=$!
sleep 1

# Tenant B, meanwhile: every request must complete, fast. The assertions
# make fpcload the judge: any shed or a p99 above 2s fails the smoke.
"$BIN/fpcload" -addr "$ADDR2" -tenant B -proc serve.fib -args 15 -workers 2 -n 200 \
    -assert-max-shed 0 -assert-max-p99 2s

wait "$LOAD_A_PID" || true  # A is expected to shed; its exit code is not the verdict
cat "$BIN/loadA.out"

TMETRICS="$(curl -fsS "$ADDR2/metrics")"
A_SHED="$(printf '%s\n' "$TMETRICS" | awk -F' ' '/^fpc_tenant_rejected_total\{tenant="A"/ {s += $2} END {print s+0}')"
B_SHED="$(printf '%s\n' "$TMETRICS" | awk -F' ' '/^fpc_tenant_rejected_total\{tenant="B"/ {s += $2} END {print s+0}')"
B_DONE="$(printf '%s\n' "$TMETRICS" | awk '$1 == "fpc_tenant_completed_total{tenant=\"B\"}" {print $2}')"
echo "serve-smoke: tenant A shed $A_SHED, tenant B shed $B_SHED, tenant B completed ${B_DONE:-0}"
if [ "$A_SHED" -eq 0 ]; then
    echo "serve-smoke: tenant A overload never shed — quota not exercised" >&2
    exit 1
fi
if [ "$B_SHED" -ne 0 ]; then
    echo "serve-smoke: tenant B shed $B_SHED requests during A's overload" >&2
    exit 1
fi
if [ "${B_DONE:-0}" -lt 200 ]; then
    echo "serve-smoke: tenant B completed ${B_DONE:-0} < 200" >&2
    exit 1
fi

kill -TERM "$FPCD2_PID"
wait "$FPCD2_PID"

# ---- Session phase: park/resume chains, then LRU eviction end to end ----
# A session table of capacity 1 makes eviction deterministic: the second
# parked session always pushes out the first.
"$BIN/fpcd" -addr "127.0.0.1:$PORT3" -session-max 1 &
FPCD3_PID=$!
i=0
until curl -fsS "$ADDR3/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -gt 50 ]; then
        echo "serve-smoke: session-phase fpcd never became healthy" >&2
        exit 1
    fi
    sleep 0.1
done

# fpcload as the judge: three sequential sessions of serve.fib(18) parked
# every 2000 steps, each required to reproduce the uninterrupted /call's
# results, output, and instruction total exactly.
"$BIN/fpcload" -addr "$ADDR3" -sessions -proc serve.fib -args 18 \
    -segment-budget 2000 -workers 1 -n 3 -assert-resume-identical

# Golden answer for the scripted sequence below.
GOLD="$(curl -fsS -X POST -d '{"module":"serve","proc":"fib","args":[18]}' "$ADDR3/call")"
GOLD_RES="$(printf '%s' "$GOLD" | sed -n 's/.*"results":\(\[[0-9,]*\]\).*/\1/p')"
if [ -z "$GOLD_RES" ]; then
    echo "serve-smoke: golden /call gave no results: $GOLD" >&2
    exit 1
fi

SESS_BODY='{"module":"serve","proc":"fib","args":[18],"budget":2000}'

# Park session 1.
P1="$(curl -fsS -X POST -d "$SESS_BODY" "$ADDR3/session")"
ID1="$(printf '%s' "$P1" | sed -n 's/.*"session":"\(s-[0-9a-f]*\)".*/\1/p')"
case "$P1" in
    *'"parked":true'*) ;;
    *) echo "serve-smoke: session 1 did not park: $P1" >&2; exit 1 ;;
esac

# Park session 2 — with -session-max 1 this evicts session 1.
P2="$(curl -fsS -X POST -d "$SESS_BODY" "$ADDR3/session")"
case "$P2" in
    *'"parked":true'*) ;;
    *) echo "serve-smoke: session 2 did not park: $P2" >&2; exit 1 ;;
esac

# Resuming the evicted session must 404.
CODE="$(curl -s -o "$BIN/resume1.out" -w '%{http_code}' -X POST -d '{}' "$ADDR3/session/$ID1/resume")"
if [ "$CODE" -ne 404 ]; then
    echo "serve-smoke: resume of evicted session returned $CODE, want 404: $(cat "$BIN/resume1.out")" >&2
    exit 1
fi

# Re-submit the computation as a fresh session and drive it to done.
RESP="$(curl -fsS -X POST -d "$SESS_BODY" "$ADDR3/session")"
i=0
while printf '%s' "$RESP" | grep -q '"parked":true'; do
    i=$((i + 1))
    if [ "$i" -gt 200 ]; then
        echo "serve-smoke: re-submitted session never finished" >&2
        exit 1
    fi
    ID="$(printf '%s' "$RESP" | sed -n 's/.*"session":"\(s-[0-9a-f]*\)".*/\1/p')"
    RESP="$(curl -fsS -X POST -d '{}' "$ADDR3/session/$ID/resume")"
done
case "$RESP" in
    *'"done":true'*) ;;
    *) echo "serve-smoke: re-submitted session did not complete: $RESP" >&2; exit 1 ;;
esac
case "$RESP" in
    *"\"results\":$GOLD_RES"*) ;;
    *) echo "serve-smoke: re-submitted session results diverge from golden $GOLD_RES: $RESP" >&2; exit 1 ;;
esac
echo "serve-smoke: park -> evict -> resume-404 -> re-submit OK ($((i + 1)) segments)"

SMETRICS="$(curl -fsS "$ADDR3/metrics")"
S_PARKED="$(printf '%s\n' "$SMETRICS" | awk '$1 == "fpc_session_parked_total" {print $2}')"
S_EVICTED="$(printf '%s\n' "$SMETRICS" | awk '$1 == "fpc_session_evicted_total" {print $2}')"
S_NOTFOUND="$(printf '%s\n' "$SMETRICS" | awk '$1 == "fpc_session_not_found_total" {print $2}')"
echo "serve-smoke: sessions parked ${S_PARKED:-0}, evicted ${S_EVICTED:-0}, not-found ${S_NOTFOUND:-0}"
if [ "${S_PARKED:-0}" -lt 3 ] || [ "${S_EVICTED:-0}" -lt 1 ] || [ "${S_NOTFOUND:-0}" -lt 1 ]; then
    echo "serve-smoke: fpc_session_* metrics did not record the sequence" >&2
    exit 1
fi

kill -TERM "$FPCD3_PID"
wait "$FPCD3_PID"
echo "serve-smoke: OK"
