#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument goes to the
# binary (see README.md). All build outputs, Go's build cache included, stay
# under .bench_build/ in the checkout, so two checkouts never share state.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -buildvcs=false -o "$build/ipregel-benchmark" .
cd "$root"
exec "$build/ipregel-benchmark" "$@"
