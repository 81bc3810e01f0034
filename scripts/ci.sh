#!/usr/bin/env bash
# ci.sh — the repository's tier-1 gate plus hygiene checks: docs
# references, shellcheck, formatting, vet, build, full tests, a race
# smoke over the concurrency-heavy paths, and a one-iteration benchmark
# smoke pass over the BFS level loops. `.github/workflows/ci.yml` runs
# exactly this script on every push and pull request; CI_BENCHCHECK=1
# additionally runs the bench-regression gate (scripts/benchcheck.sh),
# which is minutes of wall clock and has its own CI job.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== docs gate =="
# Every documentation file the public package doc (pbfs.go) or the
# README points readers at must exist: a dangling reference is a broken
# front door.
missing=0
for src in pbfs.go README.md; do
    # Match whole repo-relative references (letters, digits, _, -, .,
    # and path separators), checked relative to the repo root.
    for ref in $(grep -oE '[A-Za-z0-9][A-Za-z0-9_./-]*\.md' "$src" | sort -u); do
        if [ ! -f "$ref" ]; then
            echo "$src references missing file: $ref" >&2
            missing=1
        fi
    done
done
if [ "$missing" -ne 0 ]; then
    exit 1
fi

echo "== shellcheck =="
# Lint every shell script; skipped (not failed) where shellcheck is not
# installed, so the gate stays runnable on minimal dev machines while
# the GitHub runners (which ship shellcheck) enforce it.
if command -v shellcheck >/dev/null 2>&1; then
    shellcheck scripts/*.sh
else
    echo "shellcheck not installed; skipping"
fi

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt required for:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test =="
# -shuffle=on randomizes test and subtest execution order, so hidden
# inter-test state (shared arenas, package-level caches) surfaces in CI
# instead of in a user's tree; a failing run prints the shuffle seed
# for replay.
go test -shuffle=on ./...

echo "== race smoke (session reuse + collective substrate) =="
# Small-scale race check over the paths where goroutine ranks, worker
# pools, and cross-search arenas interlock: the session-reuse and
# rectangular-grid tests at the facade, the randomized conformance
# harness (-short trims its graph stream; it drives every driver's
# nonblocking overlap pipeline), the cluster substrate's own suite
# (the parallel rendezvous engine — including the jittered
# blocking/nonblocking stress schedules in rendezvous_stress_test.go,
# which skew goroutine interleavings across grids and subcommunicators
# and assert bit-identical simulated figures — plus the nonblocking
# post/wait collectives), and the 2D driver's rectangular
# transpose/partitioned-bitmap/overlap paths.
go test -race -run 'Session|CrossShape|RectGrid' .
go test -race -short -run 'Conformance' .
go test -race ./internal/cluster ./internal/smp
go test -race -run 'Rect|Overlap' ./internal/bfs2d
# The R-MAT generator fills one edge slice from GOMAXPROCS workers.
go test -race ./internal/rmat

echo "== race smoke (bit-parallel multi-source kernels) =="
# The MS-BFS batch path: word-wide mask kernels and merges, the batched
# 1D/2D drivers (whose hybrid variants fan the mask planes out over the
# worker pools), and the session-level batch serving surface including
# the chunked >64-source path exercised by the facade tests.
go test -race -run 'Mask|Batch' ./internal/spmat ./internal/spvec ./internal/bits
go test -race -run 'RunBatch' ./internal/bfs1d ./internal/bfs2d
go test -race -run 'BFSBatch' .

echo "== race smoke (batching query server) =="
# The serving layer is the most goroutine-dense surface in the tree:
# HTTP handlers push into per-graph queues while each graph's dispatch
# loop forms batches, a session pool executes them, the result cache
# and single-flight riders hand planes across goroutines, and Shutdown
# drains all of it at once. The full package runs under -race (it is
# fast), which covers the shutdown-under-load test asserting no
# admitted request is dropped without a response, plus the v1
# deterministic fake-clock suites: cache/coalesce/LRU semantics, the
# closed rejection-reason set, deadline-aware dispatch, and the
# 1024-query Zipf load test over two graphs (cross-graph isolation,
# zero responses completed past their deadline, serial-oracle
# distances).
go test -race ./internal/serve

echo "== counterfactual determinism smoke =="
# The decision-replay regret table derives entirely from the simulated
# clock, so two invocations must produce identical bytes — the property
# the auto-tuner's regret accounting (and the tuned_speedup gate in
# scripts/benchcmp) relies on. A diff here means wall-clock time,
# iteration order, or other nondeterminism leaked into the replay path.
cf_a=$(mktemp) && cf_b=$(mktemp)
trap 'rm -f "$cf_a" "$cf_b"' EXIT
go run ./cmd/bfsbench -counterfactual -bench-scale 10 >"$cf_a"
go run ./cmd/bfsbench -counterfactual -bench-scale 10 >"$cf_b"
if ! diff -u "$cf_a" "$cf_b"; then
    echo "counterfactual replay output differs between runs (nondeterminism regression)" >&2
    exit 1
fi
echo "replay table deterministic ($(wc -l <"$cf_a") lines)"

echo "== bench smoke (BFS level loops, 1 iteration) =="
go test -run '^$' -bench=BFS -benchtime=1x -benchmem .

echo "== bench smoke (GOMAXPROCS axis) =="
# The same steady-state level loops pinned to one core: the parallel
# collective engine must stay correct when rank goroutines are forced
# to time-slice a single P (the degenerate schedule every arrival gate
# and wake token must survive), and keeping both axes exercised here
# means a reintroduced serialization point shows up as the 1-vs-all
# wall-clock gap collapsing — which the bench-regression job turns
# into a hard failure via the parallel_efficiency floor on multicore
# runners.
GOMAXPROCS=1 go test -run '^$' -bench='BFSLevelLoop(1D|2D)Flat$' -benchtime=1x .
go test -run '^$' -bench='BFSLevelLoop(1D|2D)Flat$' -benchtime=1x .

if [ "${CI_BENCHCHECK:-0}" = "1" ]; then
    echo "== bench-regression gate =="
    ./scripts/benchcheck.sh
fi

echo "CI OK"
