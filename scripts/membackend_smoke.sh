#!/usr/bin/env sh
# End-to-end smoke test of the memory-efficiency tier (`make
# membackend-smoke`, CI job `membackend-smoke`): generate the same graph
# as a flat IPG1 binary and a block-compressed IPG3 binary, require the
# IPG3 file to be smaller, run SSSP from every backend (-graph-backend
# flat | compressed | mmap) and require identical results and superstep
# statistics (the mmap backend on both files), and boot ipregeld with
# the IPG3 file mapped read-only. The resident-heap ordering across the
# backends is internal/memmodel's TestCompressedBackendFootprint.
set -eu

TMP="$(mktemp -d)"
DAEMON_PID=""
trap 'test -n "$DAEMON_PID" && kill "$DAEMON_PID" 2>/dev/null; rm -rf "$TMP"' EXIT

fail() {
    echo "FAIL: $1" >&2
    exit 1
}

go build -o "$TMP/" ./cmd/graphgen ./cmd/ipregel-run ./cmd/ipregeld

# 1. On-disk sizes: IPG3 must undercut IPG1 on the same graph.
"$TMP/graphgen" -spec road:60:60 -o "$TMP/flat.bin" >/dev/null
"$TMP/graphgen" -spec road:60:60 -compress -o "$TMP/comp.bin" >/dev/null
FLAT_SIZE=$(wc -c <"$TMP/flat.bin")
COMP_SIZE=$(wc -c <"$TMP/comp.bin")
[ "$COMP_SIZE" -lt "$FLAT_SIZE" ] || fail "IPG3 file ($COMP_SIZE B) not smaller than IPG1 ($FLAT_SIZE B)"
echo "ok: IPG3 $COMP_SIZE B < IPG1 $FLAT_SIZE B"

# 2. Backend parity through the CLI: same reached count and superstep
# statistics from the flat file, the compressed re-encode, and the
# mapped IPG3 file.
run_sssp() {
    "$TMP/ipregel-run" -app sssp -graph-file "$1" -graph-backend "$2" \
        -combiner mutex -source 1 | grep -E '^(reached|[a-z]+ +supersteps=)' \
        | sed 's/time=[^ ]*//'
}
REF="$(run_sssp "$TMP/flat.bin" flat)"
for backend in compressed mmap; do
    case $backend in
        mmap) GOT="$(run_sssp "$TMP/comp.bin" mmap)" ;;
        *) GOT="$(run_sssp "$TMP/flat.bin" $backend)" ;;
    esac
    [ "$GOT" = "$REF" ] || fail "backend $backend diverged from flat:
$GOT
vs
$REF"
    echo "ok: $backend matches flat"
done

# Mapping the IPG1 file goes through the same parser as reading it.
GOT="$(run_sssp "$TMP/flat.bin" mmap)"
[ "$GOT" = "$REF" ] || fail "mapped IPG1 diverged from flat:
$GOT
vs
$REF"
echo "ok: mapped IPG1 matches flat"

# Reading an IPG3 file through the streaming reader (flat backend) must
# also work: the format round-trips without OpenMapped.
GOT="$(run_sssp "$TMP/comp.bin" flat)"
[ "$GOT" = "$REF" ] || fail "IPG3 via streaming reader diverged from flat"
echo "ok: IPG3 streaming read matches flat"

# 3. The daemon serves a mapped graph.
"$TMP/ipregeld" -listen 127.0.0.1:0 -graph-file g="$TMP/comp.bin" \
    -graph-backend mmap -checkpoint-root off >"$TMP/daemon.log" 2>&1 &
DAEMON_PID=$!
ADDR=""
for _ in $(seq 1 200); do
    ADDR="$(sed -n 's/^ipregeld: serving on \(.*\)$/\1/p' "$TMP/daemon.log" 2>/dev/null | head -n1)"
    test -n "$ADDR" && break
    kill -0 "$DAEMON_PID" 2>/dev/null || { cat "$TMP/daemon.log" >&2; fail "daemon exited during boot"; }
    sleep 0.1
done
test -n "$ADDR" || fail "daemon never announced its address"
grep -q 'mapped read-only' "$TMP/daemon.log" || fail "daemon did not map the graph"
curl -sf "http://$ADDR/healthz" >/dev/null || fail "daemon healthz failed with mapped graph"
kill "$DAEMON_PID"
wait "$DAEMON_PID" 2>/dev/null || true
DAEMON_PID=""
echo "ok: ipregeld served a mapped IPG3 graph"

echo "PASS: membackend smoke"
