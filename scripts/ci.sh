#!/usr/bin/env bash
# ci.sh — the repository's tier-1 gate plus hygiene checks: docs
# references, shellcheck, formatting, vet, build, full tests, a race
# smoke over the concurrency-heavy paths, and a one-iteration benchmark
# smoke pass over the BFS level loops. `.github/workflows/ci.yml` runs
# exactly this script on every push and pull request. Wall-clock
# performance is measured by benchmark/ (see benchmark/README.md), not
# here: every floor this gate holds is a deterministic go test.
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
# Every pbfs.<Identifier> the docs spell must resolve in the package:
# a deleted or renamed API must not live on in the prose.
for src in README.md DESIGN.md EXPERIMENTS.md pbfs.go; do
    for ref in $(grep -oE 'pbfs\.[A-Z][A-Za-z0-9_]*' "$src" | sort -u); do
        if ! go doc . "${ref#pbfs.}" >/dev/null 2>&1; then
            echo "$src references unknown identifier: $ref" >&2
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

echo "== simulated goldens across host core counts =="
# The simulated clock, the per-level volumes and the decision records
# must not depend on how many cores run the rank goroutines: the same
# goldens pass at GOMAXPROCS 1, 2 and 4. So must the batch distance and
# parent planes, whose first-wins claims follow rank order, not
# goroutine timing, and the printed bytes of the emulated paper
# experiments, which derive from the same clock.
go test -count=1 -cpu 1,2,4 -run '^(TestSimTimeGolden|TestCommVolumeTraceGolden|TestDecisionsGolden|TestBatchPlanesGolden)$' .
go test -count=1 -cpu 1,2,4 -run '^TestEmulatedExperimentsGolden$' ./internal/bench

echo "== race smoke (session reuse + collective substrate) =="
# Small-scale race check over the paths where goroutine ranks, worker
# pools, and cross-search arenas interlock: the session-reuse and
# rectangular-grid tests at the facade, plus the trace and decision
# goldens, whose traced searches and batches have every rank goroutine
# write its own slot of the shared level-loop recorder (internal/levels)
# at once; the randomized conformance harness (-short trims its graph
# stream; it drives every driver's level loop); the level-loop
# bookkeeping's own suite; the cluster substrate's own suite (the
# parallel rendezvous engine — including the jittered stress schedules
# in rendezvous_stress_test.go, which skew goroutine interleavings
# across grids and subcommunicators and assert bit-identical simulated
# figures); the 2D driver's rectangular transpose and
# partitioned-bitmap paths, and its pull views, built once on first use
# and then read by every rank of every bottom-up search; the
# single-search 1D, 2D and diagonal drivers, with their direction
# tests, whose bottom-up ranks all read the live-row masks Ins builds
# once per 1D in-adjacency; the Section 6 comparators' level loop
# (internal/baseline), whose ranks all write their owned ranges of one
# shared pair of output arrays; and the narrow-batch crossover, which runs one- to
# eight-source batches beside single searches on one warm session.
go test -race -run 'Session|CrossShape|RectGrid|TraceGolden|Decision|NarrowBatch' .
go test -race -short -run 'Conformance' .
go test -race ./internal/levels ./internal/cluster ./internal/smp
go test -race -run 'Rect|Pull' ./internal/bfs2d
go test -race -run 'MatchesSerial|Diagonal|Direction' ./internal/bfs1d ./internal/bfs2d
go test -race ./internal/baseline
# The R-MAT generator fills one edge slice from GOMAXPROCS workers.
go test -race ./internal/rmat

echo "== race smoke (kernels and bit-parallel multi-source paths) =="
# Every spmat/spvec/bits kernel, single and batched, including the
# strip-parallel products and pulls that fan out over worker pools; the
# batched 1D/2D drivers (whose hybrid variants fan the mask planes out
# over the worker pools), and the session-level batch serving surface
# including the chunked >64-source path exercised by the facade tests
# and the one-source route to the single search (TestBFSBatchOneSource*).
go test -race ./internal/spmat ./internal/spvec ./internal/bits
go test -race -run 'RunBatch' ./internal/bfs1d ./internal/bfs2d
go test -race -run 'BFSBatch' .

echo "== race smoke (batching query server) =="
# The serving layer is the most goroutine-dense surface in the tree:
# HTTP handlers push into per-graph queues while each graph's dispatch
# loop forms batches, a session pool executes them, the result cache
# and single-flight riders hand planes across goroutines, and Shutdown
# drains all of it at once. The full package runs under -race (it is
# fast), which covers the shutdown-under-load test asserting no
# admitted request is dropped without a response, the panic-containment
# test (TestBatchPanicContained: concurrent queries and their riders in
# a panicking batch each get one ErrBatchPanic, the session is
# replaced, later queries are served serial-identical, and Shutdown
# returns), plus the v1 deterministic fake-clock suites: cache/coalesce/
# LRU semantics, the closed rejection-reason set, deadline-aware
# dispatch, and the 1024-query Zipf load test over two graphs
# (cross-graph isolation, zero responses completed past their deadline,
# serial-oracle distances). The live-loop tests then repeat 20 times to
# shake out the session hand-off between the work-conserving loop
# (which checks a free session out and cuts a batch) and runBatch
# (which returns it and wakes the loop): an idle server answers at
# once, a backlog behind a held session rides one batch, a deadline
# that passes while the session is held is shed at acquisition.
go test -race ./internal/serve
go test -race -count=20 -run 'BatchPanic|IdleServerDispatchesAtOnce|BacklogMergesIntoOneBatch|DeadlineShedAtAcquisition' ./internal/serve

echo "== fuzz smoke (/v1/query encoder and decoder, plane cache admission, CSR build, column join, top-down products, uint32 pull, vertex ownership, 1D batch driver, layout and graph-spec parsers) =="
# The 200 body must stay byte-identical to encoding/json's, and no
# request body may panic the handler or draw a non-JSON reply. Any
# get/offer sequence must leave the plane cache's hits and misses, its
# resident LRU, its key-only ghost list, its resident planes and its
# byte footprint exactly as a map-and-slice model of second-sighting
# admission has them. Every
# CSR built from an edge list, with or without dedup, must hold each
# row sorted and exactly as a map oracle gives it, survive two
# transposes unchanged, and refuse a vertex count its uint32 ids cannot
# index. The galloping column join of the top-down kernels must select exactly the
# merge-join's matches, in order, and every top-down product (DCSC and
# row split, each kernel, with and without scratch) must return the
# merge-join product and its work. The pull over uint32 block-local ids
# must match an int64 CSC product, so no narrowing truncates an id. The
# closed-form owner lookups of the 1D and 2D partitions must land every
# vertex of any valid partition inside the block they name. The 1D
# batch driver, over any small graph, rank count, source multiset,
# thread width, work-efficiency switch and direction, must return the
# serial distances and valid parent trees from its owner-major push
# and owner-sized dedup window. Every layout the facade accepts must
# have ranks and threads, a 2D grid that factors the rank count exactly
# (no wrapped product), and resolve again from its own canonical
# spelling; every accepted bfsserve -extra-graph spec must have a
# trimmed non-empty id and re-render to itself.
go test -run '^$' -fuzz '^FuzzWriteQuery$' -fuzztime 10s ./internal/serve
go test -run '^$' -fuzz '^FuzzQueryRequest$' -fuzztime 10s ./internal/serve
go test -run '^$' -fuzz '^FuzzPlaneCache$' -fuzztime 10s ./internal/serve
go test -run '^$' -fuzz '^FuzzBuildCSR$' -fuzztime 10s ./internal/graph
go test -run '^$' -fuzz '^FuzzSelectColumns$' -fuzztime 10s ./internal/spmat
go test -run '^$' -fuzz '^FuzzSpMSV$' -fuzztime 10s ./internal/spmat
go test -run '^$' -fuzz '^FuzzPullView$' -fuzztime 10s ./internal/spmat
go test -run '^$' -fuzz '^FuzzPart1DOwner$' -fuzztime 10s ./internal/bfs1d
go test -run '^$' -fuzz '^FuzzRunBatch$' -fuzztime 10s ./internal/bfs1d
go test -run '^$' -fuzz '^FuzzPart2DOwners$' -fuzztime 10s ./internal/bfs2d
go test -run '^$' -fuzz '^FuzzResolveLayout$' -fuzztime 10s .
go test -run '^$' -fuzz '^FuzzParseGraphSpec$' -fuzztime 10s ./cmd/bfsserve

echo "== counterfactual determinism smoke =="
# The decision-replay regret table derives entirely from the simulated
# clock, so two invocations must produce identical bytes: a regret is
# only meaningful if replaying the same decision prices it the same. A
# diff here means wall-clock time, iteration order, or other
# nondeterminism leaked into the replay path.
cf_a=$(mktemp) && cf_b=$(mktemp)
trap 'rm -f "$cf_a" "$cf_b"' EXIT
go run ./cmd/bfsbench -counterfactual -bench-scale 10 >"$cf_a"
go run ./cmd/bfsbench -counterfactual -bench-scale 10 >"$cf_b"
if ! diff -u "$cf_a" "$cf_b"; then
    echo "counterfactual replay output differs between runs (nondeterminism regression)" >&2
    exit 1
fi
echo "replay table deterministic ($(wc -l <"$cf_a") lines)"

echo "== bench smoke (BFS level loops and the 1D local-shortcut ablation, 1 iteration) =="
go test -run '^$' -bench='BFS|Ablation' -benchtime=1x -benchmem .

echo "== bench smoke (2D kernel and vector ablations, 1 iteration) =="
go test -run '^$' -bench=Ablation -benchtime=1x ./internal/bfs2d

echo "== bench smoke (GOMAXPROCS axis) =="
# The same steady-state level loops pinned to one core: the parallel
# collective engine must stay correct when rank goroutines are forced
# to time-slice a single P (the degenerate schedule every arrival gate
# and wake token must survive). The Auto rows add the bottom-up levels,
# whose flat runs pull their one chunk through the hybrid path's thread
# scratch. This is a correctness smoke, not a timing: multicore
# wall-clock scaling is benchmark/'s to measure.
GOMAXPROCS=1 go test -run '^$' -bench='BFSLevelLoop(1D|2D)Flat(Auto)?$' -benchtime=1x .
go test -run '^$' -bench='BFSLevelLoop(1D|2D)Flat$' -benchtime=1x .

echo "CI OK"
