#!/usr/bin/env sh
# End-to-end smoke test of the live telemetry layer (`make
# telemetry-smoke`, CI job `telemetry-smoke`): run a small PageRank with
# -telemetry and -trace on, assert /metrics, expvar and pprof serve real
# data during/after the run, and validate + replay the emitted JSONL
# through ipregel-trace. A second leg traces an SSSP run that recovers
# from an injected compute panic: its two-attempt trace must validate and
# replay into the summary line ipregel-run printed.
set -eu

PORT="${PORT:-18080}"
TMP="$(mktemp -d)"
RUN_PID=""
trap 'test -n "$RUN_PID" && kill "$RUN_PID" 2>/dev/null; rm -rf "$TMP"' EXIT

go build -o "$TMP/" ./cmd/ipregel-run ./cmd/ipregel-trace

# -telemetry-hold keeps the endpoint up after the (fast) run so the
# scrape below is not racing run teardown.
"$TMP/ipregel-run" -app pagerank -graph rmat:12:8 -rounds 10 \
    -telemetry "127.0.0.1:$PORT" -telemetry-hold 120s \
    -trace "$TMP/run.jsonl" >"$TMP/run.log" 2>&1 &
RUN_PID=$!

# Wait until the endpoint is up and the run has finished (the trace's
# run_end event is flushed by the writer at run end).
ok=""
for _ in $(seq 1 200); do
    if curl -sf "http://127.0.0.1:$PORT/metrics" -o /dev/null 2>/dev/null \
        && grep -q '"type":"run_end"' "$TMP/run.jsonl" 2>/dev/null; then
        ok=1
        break
    fi
    if ! kill -0 "$RUN_PID" 2>/dev/null; then
        echo "FAIL: ipregel-run exited before the scrape:" >&2
        cat "$TMP/run.log" >&2
        exit 1
    fi
    sleep 0.3
done
if [ -z "$ok" ]; then
    echo "FAIL: telemetry endpoint or trace never became ready" >&2
    cat "$TMP/run.log" >&2
    exit 1
fi

fail() {
    echo "FAIL: $1" >&2
    exit 1
}

curl -sf "http://127.0.0.1:$PORT/metrics" -o "$TMP/metrics.txt"
grep -q '^ipregel_runs_total 1$' "$TMP/metrics.txt" || fail "/metrics missing ipregel_runs_total 1"
grep -q '^ipregel_runs_converged_total 1$' "$TMP/metrics.txt" || fail "/metrics missing converged run"
grep -q '^ipregel_supersteps_total ' "$TMP/metrics.txt" || fail "/metrics missing supersteps counter"
grep -q '^ipregel_messages_total [1-9]' "$TMP/metrics.txt" || fail "/metrics shows no messages"

curl -sf "http://127.0.0.1:$PORT/debug/vars" | grep -q 'ipregel_messages_total' \
    || fail "expvar /debug/vars missing the ipregel snapshot"

curl -sf -o "$TMP/heap.pb.gz" "http://127.0.0.1:$PORT/debug/pprof/heap"
test -s "$TMP/heap.pb.gz" || fail "/debug/pprof/heap returned an empty profile"

"$TMP/ipregel-trace" -validate "$TMP/run.jsonl" || fail "trace failed schema validation"
"$TMP/ipregel-trace" "$TMP/run.jsonl" >"$TMP/replay.txt" || fail "trace replay failed"
grep -q '^superstep ' "$TMP/replay.txt" || fail "replay printed no superstep table"

kill "$RUN_PID"
wait "$RUN_PID" 2>/dev/null || true
RUN_PID=""

# The recovered run: one trace file spans both attempts.
"$TMP/ipregel-run" -app sssp -graph road:30:30 -bypass -threads 1 \
    -checkpoint-dir "$TMP/ckpt" -checkpoint-every 4 -chaos 'seed=7,panic@6' \
    -trace "$TMP/recovered.jsonl" >"$TMP/recovered.log" 2>&1 \
    || { cat "$TMP/recovered.log" >&2; fail "recovered run failed"; }
"$TMP/ipregel-trace" -validate "$TMP/recovered.jsonl" || fail "recovered-run trace failed schema validation"
"$TMP/ipregel-trace" -table=false "$TMP/recovered.jsonl" >"$TMP/recovered-replay.txt" \
    || fail "recovered-run trace replay failed"
live="$(grep ' supersteps=' "$TMP/recovered.log")"
replayed="$(grep ' supersteps=' "$TMP/recovered-replay.txt")"
case "$live" in *recoveries=1*) ;; *) fail "recovered run printed no recovery: $live" ;; esac
test "$live" = "$replayed" || fail "replayed summary differs: run printed '$live', replay '$replayed'"

echo "telemetry smoke: OK"
sed -n '1,4p' "$TMP/replay.txt"
