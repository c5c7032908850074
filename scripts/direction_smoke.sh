#!/usr/bin/env sh
# End-to-end smoke test of the direction model (`make direction-smoke`,
# CI leg "Race (adaptive direction)"): run SSSP under -direction
# push | pull | adaptive and require identical results and superstep
# statistics, require an adaptive run's JSONL trace to record pull
# supersteps and a real direction switch (and replay cleanly), and record
# the push vs pull vs adaptive ablation on the RMAT stand-in to
# results/BENCH_direction.json.
set -eu

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

fail() {
    echo "FAIL: $1" >&2
    exit 1
}

go build -o "$TMP/" ./cmd/ipregel-run ./cmd/ipregel-bench ./cmd/ipregel-trace

# 1. Direction parity through the CLI: reached count and superstep
# statistics must not depend on the transport.
# The stats line leads with the engine version name, which names the
# transport ("atomic" vs "atomic+pull") — strip it along with the time.
run_sssp() {
    "$TMP/ipregel-run" -app sssp -graph road:60:60 -combiner atomic -source 1 \
        "$@" | grep -E '^(reached|[^ ]+ +supersteps=)' \
        | sed -e 's/time=[^ ]*//' -e 's/^[^ ]* *supersteps=/supersteps=/'
}
REF="$(run_sssp -direction push)"
for dir in pull adaptive; do
    GOT="$(run_sssp -direction $dir)"
    [ "$GOT" = "$REF" ] || fail "-direction $dir diverged from push:
$GOT
vs
$REF"
    echo "ok: -direction $dir matches push"
done

# 2. The adaptive trace records pull supersteps and a real switch, and
# replays through ipregel-trace.
"$TMP/ipregel-run" -app sssp -graph road:60:60 -combiner atomic -source 1 \
    -direction adaptive -trace "$TMP/adaptive.jsonl" >/dev/null
grep -q '"direction":"pull"' "$TMP/adaptive.jsonl" \
    || fail "adaptive trace records no pull superstep"
grep -q '"direction_switched":true' "$TMP/adaptive.jsonl" \
    || fail "adaptive trace records no direction switch"
"$TMP/ipregel-trace" -validate "$TMP/adaptive.jsonl" >/dev/null \
    || fail "adaptive trace does not validate/replay"
echo "ok: adaptive trace shows pull supersteps and a switch, and replays"

# 3. Record the direction ablation (push vs pull vs adaptive × PageRank/
# Hashmin/SSSP on the scale-free RMAT stand-in; the experiment enforces
# fingerprint parity internally).
mkdir -p results
"$TMP/ipregel-bench" -exp direction -quick -divisor 256 >"$TMP/direction.out"
sed -n '/^{/,/^}/p' "$TMP/direction.out" >results/BENCH_direction.json
[ -s results/BENCH_direction.json ] || fail "no JSON report in direction experiment output"
grep -q '"experiment": "direction"' results/BENCH_direction.json \
    || fail "results/BENCH_direction.json is not the direction report"
grep -q '"switches": [1-9]' results/BENCH_direction.json \
    || fail "no adaptive run in the ablation ever switched direction"
echo "ok: results/BENCH_direction.json recorded"

echo "PASS: direction smoke"
