#!/usr/bin/env sh
# End-to-end smoke test of the crash-recovery layer (`make chaos`, CI
# job `chaos`): kill-and-auto-resume must work through both entry
# points — the examples/faulttolerance demo (panic + corrupted
# checkpoint, supervisor falls back past the bad file) and the
# ipregel-run CLI under a -chaos fault spec (SSSP, and BFS, one of the
# apps only the app table made checkpointable). All must recover at
# least once and finish with a verified / plausible result.
set -eu

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

echo "== examples/faulttolerance: panic + corrupt checkpoint, auto-resume =="
go run ./examples/faulttolerance -rows 80 -cols 80 -every 10 | tee "$TMP/example.log"
grep -q "recoveries: 2" "$TMP/example.log" || {
    echo "FAIL: example did not report 2 recoveries" >&2
    exit 1
}
grep -q "identical to the uninterrupted run" "$TMP/example.log" || {
    echo "FAIL: example did not verify the recovered result" >&2
    exit 1
}

echo "== ipregel-run: -chaos spec killed mid-run, supervisor resumes =="
go run ./cmd/ipregel-run -app sssp -graph road:60:60 -combiner spinlock -bypass -source 1 \
    -checkpoint-dir "$TMP/ckpt" -checkpoint-every 4 \
    -chaos 'seed=7,panic@9,cancel@21' -recover-attempts 4 | tee "$TMP/cli.log"
grep -q "recovery: attempt 1 failed" "$TMP/cli.log" || {
    echo "FAIL: CLI run did not report a recovery" >&2
    exit 1
}
grep -q "reached: 3600 of 3600" "$TMP/cli.log" || {
    echo "FAIL: CLI run did not reach every vertex after recovery" >&2
    exit 1
}
grep -q "recoveries=2" "$TMP/cli.log" || {
    echo "FAIL: CLI report is missing recoveries=2" >&2
    exit 1
}

echo "== ipregel-run: BFS, checkpointed through the app table, killed and resumed =="
go run ./cmd/ipregel-run -app bfs -graph road:60:60 -source 1 \
    -checkpoint-dir "$TMP/ckpt3" -checkpoint-every 4 \
    -chaos 'seed=7,panic@9' | tee "$TMP/bfs.log"
grep -q "recovery: attempt 1 failed" "$TMP/bfs.log" || {
    echo "FAIL: BFS run did not report a recovery" >&2
    exit 1
}
grep -q "reached: 3600 of 3600" "$TMP/bfs.log" || {
    echo "FAIL: BFS run did not reach every vertex after recovery" >&2
    exit 1
}

echo "== ipregel-run: checkpoints survive across invocations =="
# One attempt only: the injected panic exhausts the supervisor, leaving
# checkpoints behind; the second invocation resumes from them.
if go run ./cmd/ipregel-run -app hashmin -graph road:60:60 -combiner mutex \
    -checkpoint-dir "$TMP/ckpt2" -checkpoint-every 4 \
    -chaos 'seed=7,panic@50' -recover-attempts 1 >"$TMP/kill.log" 2>&1; then
    echo "FAIL: exhausted run exited 0" >&2
    cat "$TMP/kill.log" >&2
    exit 1
fi
ls "$TMP/ckpt2"/ckpt-*.ipck >/dev/null 2>&1 || {
    echo "FAIL: no checkpoints left behind by the killed run" >&2
    exit 1
}
go run ./cmd/ipregel-run -app hashmin -graph road:60:60 -combiner mutex \
    -checkpoint-dir "$TMP/ckpt2" -checkpoint-every 4 | tee "$TMP/resume.log"
grep -q "components: 1" "$TMP/resume.log" || {
    echo "FAIL: resumed invocation did not finish hashmin" >&2
    exit 1
}

echo "PASS: chaos smoke"
