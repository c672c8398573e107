#!/usr/bin/env bash
# Entry point of the acceptance driver:
#
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Builds the benchmark from the checkout and runs it. The Go build cache and
# temp directory are kept under .bench_build/ in the checkout, so a run reads
# and writes nothing outside it; the programs under test are built there too
# (by the benchmark itself, with the same cache). In a directory without the
# repository's sources the build fails and the script exits non-zero without
# printing a result.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local
go build -o "$build/bin/benchmark" ./benchmark
exec "$build/bin/benchmark" "$@"
