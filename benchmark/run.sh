#!/usr/bin/env bash
# Builds the benchmark from source and runs it; the arguments go to the
# program unchanged. Run from the root of a checkout:
#
#   bash benchmark/run.sh --workload mesh8_mixed --seed 1 --seconds 5 --trace 0
#
# Everything the build writes — the binary and Go's build cache — stays in
# .bench_build inside the checkout, so a run touches nothing outside it.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
go -C "$root/benchmark" build -o "$out/adaptnoc-bench" .
exec "$out/adaptnoc-bench" "$@"
