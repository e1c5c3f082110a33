#!/usr/bin/env bash
# The benchmark's entry point (BENCHMARK.json "command"): builds ./bench from
# source into .bench_build/ in the checkout it is run from, then runs it with
# the autotuner tables detached from the user's cache directory. Everything
# the build and the run write — Go build cache, temporary files, checkpoint
# directories — stays under .bench_build/.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-buildvcs=false
go build -o "$build/samo-bench" ./bench
export SAMO_GEMM_TUNE=off SAMO_SPARSE_XOVER_TABLE=off
exec "$build/samo-bench" -tmpdir "$build/tmp" "$@"
