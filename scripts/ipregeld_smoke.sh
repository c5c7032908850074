#!/usr/bin/env sh
# End-to-end smoke test of the resident query daemon (`make
# ipregeld-smoke`, CI job `ipregeld-smoke`): boot ipregeld on an
# ephemeral port with one resident graph, let a first job run into its
# deadline (it keeps its checkpoints; its POST answers 202), submit a
# PageRank and an SSSP job concurrently (the SSSP's POST answers 200
# with its result), require both to finish with sane results and no job
# directory left behind, require a resubmitted identical job to be
# served from the LRU cache without re-running, check the per-job
# telemetry mount, and demand a clean SIGTERM shutdown. Then boot a
# second daemon on the same checkpoint root: its first job (the same id
# as the cancelled one) must answer like the first daemon's PageRank,
# not resume the cancelled job's checkpoints.
set -eu

TMP="$(mktemp -d)"
DAEMON_PID=""
trap 'test -n "$DAEMON_PID" && kill "$DAEMON_PID" 2>/dev/null; rm -rf "$TMP"' EXIT

fail() {
    echo "FAIL: $1" >&2
    echo "--- daemon log ---" >&2
    cat "$TMP/daemon.log" >&2 2>/dev/null || true
    exit 1
}

go build -o "$TMP/" ./cmd/ipregeld

# boot starts a daemon on the shared checkpoint root, logging to $1, and
# sets BASE once it has announced its resolved address.
boot() {
    "$TMP/ipregeld" -listen 127.0.0.1:0 -graph g=rmat:12:8 -workers 2 \
        -checkpoint-root "$TMP/ckpt" >"$1" 2>&1 &
    DAEMON_PID=$!
    ADDR=""
    for _ in $(seq 1 200); do
        ADDR="$(sed -n 's/^ipregeld: serving on \(.*\)$/\1/p' "$1" 2>/dev/null | head -n1)"
        test -n "$ADDR" && break
        kill -0 "$DAEMON_PID" 2>/dev/null || fail "daemon exited during boot"
        sleep 0.1
    done
    test -n "$ADDR" || fail "daemon never announced its address"
    BASE="http://$ADDR"
}

# stop demands a clean SIGTERM shutdown of the running daemon, logging
# to $1.
stop() {
    kill "$DAEMON_PID"
    for _ in $(seq 1 100); do
        kill -0 "$DAEMON_PID" 2>/dev/null || break
        sleep 0.1
    done
    if kill -0 "$DAEMON_PID" 2>/dev/null; then
        fail "daemon ignored SIGTERM"
    fi
    wait "$DAEMON_PID" 2>/dev/null || fail "daemon exited non-zero on SIGTERM"
    DAEMON_PID=""
    grep -q '^ipregeld: bye$' "$1" || fail "no clean shutdown marker"
}

job_id() { sed -n 's/.*"id": "\(j[0-9]*\)".*/\1/p' "$1" | head -n1; }

# submit posts body $1, saves the response as $2, requires HTTP status
# $3 if given and prints the job id.
submit() {
    code="$(curl -s -X POST -d "$1" "$BASE/v1/jobs" -o "$2" -w '%{http_code}')" || fail "submit $1"
    test -z "${3:-}" || test "$code" = "$3" || fail "submit $1 answered $code, want $3: $(cat "$2")"
    id="$(job_id "$2")"
    test -n "$id" || fail "no job id in $(cat "$2")"
    echo "$id"
}

# wait_state polls job $1 to a terminal state and requires state $2.
wait_state() {
    id="$1"
    for _ in $(seq 1 300); do
        curl -sf "$BASE/v1/jobs/$id" -o "$TMP/$id.json" || fail "poll $id"
        if grep -q "\"state\": \"$2\"" "$TMP/$id.json"; then
            return 0
        fi
        if grep -Eq '"state": "(done|failed|cancelled)"' "$TMP/$id.json"; then
            fail "job $id did not end $2: $(cat "$TMP/$id.json")"
        fi
        sleep 0.1
    done
    fail "job $id never ended"
}
wait_done() { wait_state "$1" done; }

# answer prints a finished PageRank's superstep count, rank sum and top
# vertices, floats to nine decimals (push-combined sums vary below that).
answer() {
    sed -n '/"result"/,$p' "$1" |
        sed -n 's/^ *"\(supersteps\|rank_sum\|id\|value\)": \([^,]*\),*$/\1 \2/p' |
        awk '$1 == "rank_sum" || $1 == "value" { printf "%s %.9f\n", $1, $2; next } { print }'
}

boot "$TMP/daemon.log"

curl -sf "$BASE/healthz" | grep -q '"status": "ok"' || fail "healthz not ok"
curl -sf "$BASE/v1/graphs" | grep -q '"name": "g"' || fail "graph not listed"

# A first job that runs into its deadline: it keeps the checkpoints it
# committed, in a job directory named by its id. It cannot end within
# the submission window, so its POST answers 202 and it is polled.
STALE_ID="$(submit '{"graph":"g","program":"pagerank","params":{"rounds":90000},"limits":{"deadline_ms":1000}}' "$TMP/stale.json" 202)"
wait_state "$STALE_ID" cancelled

# Submit two jobs back to back so they run concurrently on the two
# workers. A POST is held while its job runs (up to the submission
# window), so the PageRank's goes in the background. The SSSP ends
# within the window: its POST itself answers 200 with the finished job.
PR_BODY='{"graph":"g","program":"pagerank","params":{"rounds":20,"top":3}}'
submit "$PR_BODY" "$TMP/pr.json" >"$TMP/pr.id" &
PR_POST=$!
SS_ID="$(submit '{"graph":"g","program":"sssp","params":{"source":1}}' "$TMP/ss.json" 200)"
grep -q '"state": "done"' "$TMP/ss.json" || fail "the SSSP's POST did not answer it done: $(cat "$TMP/ss.json")"
grep -Eq '"reached": [1-9]' "$TMP/ss.json" || fail "the SSSP's POST carries no result: $(cat "$TMP/ss.json")"
wait "$PR_POST" || fail "pagerank submit"
PR_ID="$(cat "$TMP/pr.id")"
wait_done "$PR_ID"
wait_done "$SS_ID"

# The daemon's run directory holds only the cancelled job's directory:
# the SSSP ended before its first checkpoint barrier and made none, the
# PageRank's went with its success. The cancelled job's newest
# checkpoint lies past the whole 21-superstep PageRank run.
RUN_DIRS="$(ls "$TMP/ckpt")"
test "$(echo "$RUN_DIRS" | wc -l)" = 1 || fail "want one run directory under the root, have: $RUN_DIRS"
RUN_DIR="$TMP/ckpt/$RUN_DIRS"
JOB_DIRS="$(ls "$RUN_DIR")"
test "$JOB_DIRS" = "$STALE_ID" || fail "job directories left in $RUN_DIR: $JOB_DIRS (want only $STALE_ID)"
NEWEST="$(ls "$RUN_DIR/$STALE_ID" | sed -n 's/^ckpt-0*\([0-9][0-9]*\)\.ipck$/\1/p' | sort -n | tail -n1)"
test -n "$NEWEST" || fail "the cancelled job kept no checkpoint"
test "$NEWEST" -gt 21 || fail "the cancelled job's newest checkpoint is superstep $NEWEST, want one past 21"

grep -q '"rank_sum"' "$TMP/$PR_ID.json" || fail "pagerank result missing rank_sum"
grep -q '"top"' "$TMP/$PR_ID.json" || fail "pagerank result missing top vertices"
grep -Eq '"reached": [1-9]' "$TMP/$SS_ID.json" || fail "sssp reached no vertices"

# Per-job telemetry: the shared collector must have counted all three
# runs, the cancelled one as aborted.
curl -sf "$BASE/metrics" -o "$TMP/metrics.txt" || fail "metrics scrape"
grep -q '^ipregel_runs_total 3$' "$TMP/metrics.txt" || fail "/metrics runs_total != 3"
grep -q '^ipregel_runs_converged_total 2$' "$TMP/metrics.txt" || fail "/metrics converged_total != 2"
grep -q '^ipregel_runs_aborted_total 1$' "$TMP/metrics.txt" || fail "/metrics aborted_total != 1"

# An identical resubmission must be served from the result cache: HTTP
# 200 (not 202), born done, flagged cached.
HITCODE="$(curl -s -o "$TMP/hit.json" -w '%{http_code}' -X POST -d "$PR_BODY" "$BASE/v1/jobs")"
test "$HITCODE" = "200" || fail "cache resubmission returned $HITCODE, want 200"
grep -q '"cached": true' "$TMP/hit.json" || fail "resubmission not flagged cached"
grep -q '"state": "done"' "$TMP/hit.json" || fail "cache hit not born done"
curl -sf "$BASE/metrics" | grep -q '^ipregel_runs_total 3$' \
    || fail "cache hit re-ran the job (runs_total moved)"

stop "$TMP/daemon.log"
test -d "$RUN_DIR/$STALE_ID" || fail "shutdown removed the cancelled job's checkpoints"

# A second daemon on the same root numbers its jobs from j1 again. Its
# first job must answer like the first daemon's PageRank did, whatever
# the cancelled job left under the same id.
boot "$TMP/daemon2.log"
SECOND_ID="$(submit "$PR_BODY" "$TMP/second.json")"
test "$SECOND_ID" = "$STALE_ID" || fail "second daemon's first job is $SECOND_ID, the cancelled one was $STALE_ID"
wait_done "$SECOND_ID"
answer "$TMP/$PR_ID.json" >"$TMP/want.txt"
answer "$TMP/$SECOND_ID.json" >"$TMP/got.txt"
test -s "$TMP/want.txt" || fail "no answer in $(cat "$TMP/$PR_ID.json")"
cmp -s "$TMP/want.txt" "$TMP/got.txt" ||
    fail "second daemon answered $(tr '\n' ' ' <"$TMP/got.txt"), first $(tr '\n' ' ' <"$TMP/want.txt")"
stop "$TMP/daemon2.log"
# The second daemon's job succeeded, so its run directory went at
# shutdown: only the first daemon's remains.
test "$(ls "$TMP/ckpt")" = "$RUN_DIRS" || fail "root after both daemons holds: $(ls "$TMP/ckpt")"

echo "ipregeld smoke: OK"
grep '"value"' "$TMP/$PR_ID.json" | head -n 3
