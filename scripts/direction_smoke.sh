#!/usr/bin/env sh
# End-to-end smoke test of the direction model (`make direction-smoke`,
# CI leg "Race (adaptive direction)"): run SSSP under -direction
# push | pull | adaptive and require identical results and superstep
# statistics, and require an adaptive run's JSONL trace to record pull
# supersteps and a real direction switch (and replay cleanly). It writes
# nothing outside its temporary directory.
set -eu

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

fail() {
    echo "FAIL: $1" >&2
    exit 1
}

go build -o "$TMP/" ./cmd/ipregel-run ./cmd/ipregel-trace

# 1. Direction parity through the CLI: reached count and superstep
# statistics must not depend on the transport.
# The stats line leads with the engine version name, which names the
# transport ("mutex", "broadcast", "mutex+adaptive") — strip it along
# with the time.
run_sssp() {
    "$TMP/ipregel-run" -app sssp -graph road:60:60 -combiner mutex -source 1 \
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
"$TMP/ipregel-run" -app sssp -graph road:60:60 -combiner mutex -source 1 \
    -direction adaptive -trace "$TMP/adaptive.jsonl" >/dev/null
grep -q '"direction":"pull"' "$TMP/adaptive.jsonl" \
    || fail "adaptive trace records no pull superstep"
grep -q '"direction_switched":true' "$TMP/adaptive.jsonl" \
    || fail "adaptive trace records no direction switch"
"$TMP/ipregel-trace" -validate "$TMP/adaptive.jsonl" >/dev/null \
    || fail "adaptive trace does not validate/replay"
echo "ok: adaptive trace shows pull supersteps and a switch, and replays"

echo "PASS: direction smoke"
