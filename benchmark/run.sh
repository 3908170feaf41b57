#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build the benchmark from source
# into .bench_build/ (build cache included, so nothing is read or written
# outside the checkout) and run it with the driver's arguments. Run from
# the root of a checkout; `go run ./benchmark ...` does the same with the
# user's own build cache.
set -euo pipefail
root=$(pwd)
if [[ ! -f go.mod || ! -d benchmark ]]; then
	echo "benchmark/run.sh: run from the root of a checkout (no go.mod here)" >&2
	exit 2
fi
export GOCACHE="$root/.bench_build/gocache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
mkdir -p .bench_build
go build -o .bench_build/copart-benchmark ./benchmark
exec .bench_build/copart-benchmark "$@"
