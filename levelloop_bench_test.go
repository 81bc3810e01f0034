package pbfs

// Wall-clock benchmarks of the distributed BFS level loops themselves:
// the graph is generated and distributed once, and one warm-up search
// grows the arena, all outside the timer, so ns/op and allocs/op
// measure exactly the per-search steady state. This is real Go
// execution time, not simulated machine seconds; allocs/op is held by
// TestBatchLevelLoopAllocationFree, and end-to-end wall clock by the
// benchmark/ harness.
//
//	go test -bench=BFSLevelLoop -benchmem

import (
	"runtime"
	"testing"

	"repro/internal/bfs1d"
	"repro/internal/bfs2d"
	"repro/internal/cluster"
	"repro/internal/dirheur"
	"repro/internal/graph"
	"repro/internal/graph500"
	"repro/internal/netmodel"
	"repro/internal/rmat"
	"repro/internal/spmat"
	"repro/internal/webgen"
)

// levelLoopScale is the Graph 500 scale of the benchmark workload: 2^16
// vertices, edge factor 16 (big enough that steady-state levels dominate
// per-search setup).
const levelLoopScale = 16

func levelLoopSources(b *testing.B, el *graph.EdgeList, k int) []int64 {
	b.Helper()
	ref, err := graph.BuildCSR(el, true)
	if err != nil {
		b.Fatal(err)
	}
	srcs := graph500.SelectSources(ref, k, 0xbf)
	if len(srcs) < k {
		b.Fatalf("only %d of %d usable benchmark sources", len(srcs), k)
	}
	return srcs
}

func levelLoopSource(b *testing.B, el *graph.EdgeList) int64 {
	b.Helper()
	return levelLoopSources(b, el, 1)[0]
}

func benchLevelLoop2D(b *testing.B, scale, ranks, threads int, kernel spmat.Kernel, dir dirheur.Mode) {
	b.Helper()
	el, err := rmat.Graph500(scale, 16, 0xbf).GenerateUndirected()
	if err != nil {
		b.Fatal(err)
	}
	benchLevelLoop2DOn(b, el, ranks, threads, kernel, dir)
}

// benchLevelLoop2DOn is benchLevelLoop2D over a given graph.
func benchLevelLoop2DOn(b *testing.B, el *graph.EdgeList, ranks, threads int, kernel spmat.Kernel, dir dirheur.Mode) {
	b.Helper()
	// These rows are pinned to square layouts (the engine accepts any
	// factorization since PR 4).
	pr, pc := cluster.ClosestSquare(ranks)
	if pr != pc {
		b.Fatalf("ranks %d not square", ranks)
	}
	dg, err := bfs2d.Distribute(el, pr, pc, threads)
	if err != nil {
		b.Fatal(err)
	}
	src := levelLoopSource(b, el)
	machine := netmodel.Franklin()
	if dir != dirheur.ModeTopDown {
		dg.Pulls() // static pull views build with distribution, outside the timer
	}
	var arena bfs2d.Arena
	defer arena.Close()
	// The world and grid persist across searches like a session engine's;
	// Reset re-zeroes the clocks each iteration.
	w := cluster.NewWorld(ranks, machine)
	grid := cluster.NewGrid(w, pr, pc)
	search := func() {
		w.Reset()
		out, err := bfs2d.Run(w, grid, dg, src, bfs2d.Options{
			Threads: threads, Kernel: kernel, Price: machine, Arena: &arena,
			Direction: dir,
		})
		if err != nil {
			b.Fatal(err)
		}
		if out.TraversedEdges == 0 {
			b.Fatal("benchmark source did no work")
		}
	}
	// One warm search grows the arena, so allocs/op is the steady state.
	search()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		search()
	}
}

func benchLevelLoop1D(b *testing.B, scale, ranks, threads int, dir dirheur.Mode) {
	b.Helper()
	el, err := rmat.Graph500(scale, 16, 0xbf).GenerateUndirected()
	if err != nil {
		b.Fatal(err)
	}
	dg, err := bfs1d.Distribute(el, ranks)
	if err != nil {
		b.Fatal(err)
	}
	src := levelLoopSource(b, el)
	machine := netmodel.Franklin()
	dg.Symmetric = true // undirected R-MAT: pull aliases the push CSRs
	opt := bfs1d.Options{Threads: 1, LocalShortcut: true, DedupSends: true}
	opt.Threads = threads
	opt.Price = machine
	opt.Direction = dir
	opt.Arena = &bfs1d.Arena{}
	defer opt.Arena.Close()
	w := cluster.NewWorld(ranks, machine)
	search := func() {
		w.Reset()
		if out := bfs1d.Run(w, dg, src, opt); out.TraversedEdges == 0 {
			b.Fatal("benchmark source did no work")
		}
	}
	// One warm search grows the arena, so allocs/op is the steady state.
	search()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		search()
	}
}

// Top-down-only rows: the PR 1 baselines, and the configuration the
// paper evaluates.
func BenchmarkBFSLevelLoop2DFlat(b *testing.B) {
	benchLevelLoop2D(b, levelLoopScale, 16, 1, spmat.KernelAuto, dirheur.ModeTopDown)
}
func BenchmarkBFSLevelLoop2DHybrid(b *testing.B) {
	benchLevelLoop2D(b, levelLoopScale, 16, 4, spmat.KernelAuto, dirheur.ModeTopDown)
}
func BenchmarkBFSLevelLoop1DFlat(b *testing.B) {
	benchLevelLoop1D(b, levelLoopScale, 16, 1, dirheur.ModeTopDown)
}
func BenchmarkBFSLevelLoop1DHybrid(b *testing.B) {
	benchLevelLoop1D(b, levelLoopScale, 16, 4, dirheur.ModeTopDown)
}

// Direction-optimized rows: the library default since PR 2.
func BenchmarkBFSLevelLoop2DFlatAuto(b *testing.B) {
	benchLevelLoop2D(b, levelLoopScale, 16, 1, spmat.KernelAuto, dirheur.ModeAuto)
}
func BenchmarkBFSLevelLoop1DFlatAuto(b *testing.B) {
	benchLevelLoop1D(b, levelLoopScale, 16, 1, dirheur.ModeAuto)
}

func benchLevelLoopBatch1D(b *testing.B, scale, ranks, threads, width int) {
	b.Helper()
	el, err := rmat.Graph500(scale, 16, 0xbf).GenerateUndirected()
	if err != nil {
		b.Fatal(err)
	}
	dg, err := bfs1d.Distribute(el, ranks)
	if err != nil {
		b.Fatal(err)
	}
	srcs := levelLoopSources(b, el, width)
	machine := netmodel.Franklin()
	dg.Symmetric = true
	opt := bfs1d.Options{Threads: 1, LocalShortcut: true, DedupSends: true}
	opt.Threads = threads
	opt.Price = machine
	opt.Direction = dirheur.ModeAuto
	opt.Arena = &bfs1d.Arena{}
	defer opt.Arena.Close()
	w := cluster.NewWorld(ranks, machine)
	// One warm batch builds the word-wide mask planes and exchange
	// buffers, so allocs/op measures exactly the steady state the
	// tentpole promises: level iterations allocation-free, with only
	// the O(width) output assembly left per batch.
	w.Reset()
	if out := bfs1d.RunBatch(w, dg, srcs, opt); out.UniqueTraversedEdges == 0 {
		b.Fatal("warm-up batch did no work")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Reset()
		out := bfs1d.RunBatch(w, dg, srcs, opt)
		if out.UniqueTraversedEdges == 0 {
			b.Fatal("benchmark batch did no work")
		}
	}
}

func benchLevelLoopBatch2D(b *testing.B, scale, ranks, threads, width int) {
	b.Helper()
	el, err := rmat.Graph500(scale, 16, 0xbf).GenerateUndirected()
	if err != nil {
		b.Fatal(err)
	}
	pr, pc := cluster.ClosestSquare(ranks)
	if pr != pc {
		b.Fatalf("ranks %d not square", ranks)
	}
	dg, err := bfs2d.Distribute(el, pr, pc, threads)
	if err != nil {
		b.Fatal(err)
	}
	srcs := levelLoopSources(b, el, width)
	machine := netmodel.Franklin()
	dg.Pulls() // the batched heuristic may pull; build views outside the timer
	var arena bfs2d.Arena
	defer arena.Close()
	w := cluster.NewWorld(ranks, machine)
	grid := cluster.NewGrid(w, pr, pc)
	opt := bfs2d.Options{
		Threads: threads, Kernel: spmat.KernelAuto, Price: machine,
		Arena: &arena, Direction: dirheur.ModeAuto,
	}
	w.Reset()
	if out, err := bfs2d.RunBatch(w, grid, dg, srcs, opt); err != nil {
		b.Fatal(err)
	} else if out.UniqueTraversedEdges == 0 {
		b.Fatal("warm-up batch did no work")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Reset()
		out, err := bfs2d.RunBatch(w, grid, dg, srcs, opt)
		if err != nil {
			b.Fatal(err)
		}
		if out.UniqueTraversedEdges == 0 {
			b.Fatal("benchmark batch did no work")
		}
	}
}

// Multi-source batch rows (PR 6): 64 searches per mask word through one
// shared level loop. ns/op here is whole-batch time — divide by 64 for
// the amortized per-source figure.
func BenchmarkBFSLevelLoop1DFlatBatch64(b *testing.B) {
	benchLevelLoopBatch1D(b, levelLoopScale, 16, 1, 64)
}
func BenchmarkBFSLevelLoop1DHybridBatch64(b *testing.B) {
	benchLevelLoopBatch1D(b, levelLoopScale, 16, 4, 64)
}
func BenchmarkBFSLevelLoop2DFlatBatch64(b *testing.B) {
	benchLevelLoopBatch2D(b, levelLoopScale, 16, 1, 64)
}

// TestBatchLevelLoopAllocationFree is the acceptance gate on the batched
// steady state: with a warm arena, a whole 64-wide batch may allocate
// only its output assembly (the per-search distance/parent planes plus a
// few header slices) — the level iterations themselves must be
// allocation-free. The bound is 4·width+64 mallocs per batch: output
// assembly costs ~2·width inner planes plus O(ranks) headers, so any
// per-level or per-vertex allocation sneaking into the word-wide kernels
// blows through it immediately (a scale-12 R-MAT runs ~8 shared levels
// over 16 ranks; even one malloc per rank per level would add ~128).
func TestBatchLevelLoopAllocationFree(t *testing.T) {
	if testing.Short() {
		t.Skip("testing.Benchmark run too slow for -short")
	}
	const width = 64
	for _, tc := range []struct {
		name  string
		bench func(*testing.B)
	}{
		{"1d-flat", func(b *testing.B) { benchLevelLoopBatch1D(b, 12, 16, 1, width) }},
		{"1d-hybrid", func(b *testing.B) { benchLevelLoopBatch1D(b, 12, 16, 4, width) }},
		{"2d-flat", func(b *testing.B) { benchLevelLoopBatch2D(b, 12, 16, 1, width) }},
	} {
		res := testing.Benchmark(tc.bench)
		if limit := int64(4*width + 64); res.AllocsPerOp() > limit {
			t.Errorf("%s: %d allocs per 64-wide batch exceeds the %d output-assembly bound — a batch level iteration is allocating",
				tc.name, res.AllocsPerOp(), limit)
		}
	}
	// Single-search rows under the default Auto direction, warm arena.
	// Each bound is the steady-state count measured when the rows were
	// added (scale 12, 16 ranks, Go 1.24, linux/amd64) × 1.25 + 16: loose
	// enough for runtime drift, tight enough that one malloc per rank per
	// level trips it.
	for _, tc := range []struct {
		name  string
		limit int64
		bench func(*testing.B)
	}{
		{"1d-flat", 176, func(b *testing.B) { benchLevelLoop1D(b, 12, 16, 1, dirheur.ModeAuto) }},   // measured 128
		{"1d-hybrid", 296, func(b *testing.B) { benchLevelLoop1D(b, 12, 16, 4, dirheur.ModeAuto) }}, // measured 224
		{"2d-flat", 194, func(b *testing.B) { // measured 143
			benchLevelLoop2D(b, 12, 16, 1, spmat.KernelAuto, dirheur.ModeAuto)
		}},
		{"2d-hybrid", 194, func(b *testing.B) { // measured 143
			benchLevelLoop2D(b, 12, 16, 4, spmat.KernelAuto, dirheur.ModeAuto)
		}},
		// A 2^12 crawl: about 130 levels of tiny frontiers, all top-down
		// under Auto, so the SpMSV's per-strip join and accumulator
		// scratch run at every level of every rank (a kernel that
		// allocated in most products made 1546 here).
		{"2d-flat-crawl", 68, func(b *testing.B) { // measured 42
			el, err := webgen.UKUnionLike(1<<12, 0xbf).GenerateUndirected()
			if err != nil {
				b.Fatal(err)
			}
			benchLevelLoop2DOn(b, el, 16, 1, spmat.KernelAuto, dirheur.ModeAuto)
		}},
	} {
		res := testing.Benchmark(tc.bench)
		if res.AllocsPerOp() > tc.limit {
			t.Errorf("%s: %d allocs per warm single search exceeds the %d bound — a level iteration is allocating",
				tc.name, res.AllocsPerOp(), tc.limit)
		}
	}
}

// BenchmarkBFSLevelLoop1DHybridSingleCore isolates the PR 1 regression
// note: pinned to one scheduler thread, the hybrid variant's worker
// team is pure synchronization overhead over the flat loop, so this
// row divided by BenchmarkBFSLevelLoop1DFlat is the single-core hybrid
// tax. Nothing gates the ratio (no benchmark/ workload runs the 1D
// hybrid); this benchmark is the way to measure it on any host.
func BenchmarkBFSLevelLoop1DHybridSingleCore(b *testing.B) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	benchLevelLoop1D(b, levelLoopScale, 16, 4, dirheur.ModeTopDown)
}
