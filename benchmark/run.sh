#!/usr/bin/env bash
# The command BENCHMARK.json names. Builds the benchmark from the
# checkout it sits in, keeping the Go build cache and the binary under
# .bench_build/ so nothing is written outside the checkout, then runs
# it with the driver's arguments:
#
#   bash benchmark/run.sh --workload rmat-2d --seed 7 --seconds 10 --trace 0
#
# Without a go.mod beside benchmark/ there is nothing to build against
# and the script fails before printing a result.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
if [ ! -f go.mod ]; then
	echo "benchmark/run.sh: no go.mod in $root: the benchmark builds against the repository it sits in" >&2
	exit 1
fi
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/go-cache" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o .bench_build/benchmark ./benchmark
exec .bench_build/benchmark "$@"
