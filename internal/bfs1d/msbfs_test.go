package bfs1d

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dirheur"
	"repro/internal/graph"
	"repro/internal/netmodel"
	"repro/internal/rmat"
	"repro/internal/serial"
)

func batchTestGraph(t *testing.T, scale int) (*graph.CSR, *graph.EdgeList) {
	t.Helper()
	p := rmat.Graph500(scale, 8, 5)
	el, err := p.GenerateUndirected()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := graph.BuildCSR(el, true)
	if err != nil {
		t.Fatal(err)
	}
	return ref, el
}

// pickBatchSources returns width sources exercising the awkward cases:
// a duplicated source (two searches share every frontier) and, when the
// graph has one, an isolated vertex (the search retires at level one).
func pickBatchSources(ref *graph.CSR, width int) []int64 {
	srcs := make([]int64, 0, width)
	var isolated int64 = -1
	for v := int64(0); v < ref.NumVerts && isolated < 0; v++ {
		if len(ref.Neighbors(v)) == 0 {
			isolated = v
		}
	}
	for v := int64(0); v < ref.NumVerts && len(srcs) < width; v++ {
		if len(ref.Neighbors(v)) > 0 {
			srcs = append(srcs, v)
		}
	}
	for len(srcs) < width {
		srcs = append(srcs, srcs[0])
	}
	if width >= 2 {
		srcs[width-1] = srcs[0] // duplicate
	}
	if width >= 3 && isolated >= 0 {
		srcs[width-2] = isolated
	}
	return srcs
}

// TestRunBatchMatchesSequential is the driver-level half of the batched
// conformance story: for every direction mode, thread width, and rank
// count, the batched distances must be bit-identical to running each
// source through the scalar Run, and the batched parents must be valid
// BFS trees (validated against the serial oracle, which checks the
// parent edge and level relation — not parent equality, which batching
// does not promise).
func TestRunBatchMatchesSequential(t *testing.T) {
	ref, el := batchTestGraph(t, 8)
	for _, p := range []int{1, 4, 7} {
		dg, err := Distribute(el, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []dirheur.Mode{dirheur.ModeTopDown, dirheur.ModeAuto, dirheur.ModeBottomUp} {
			for _, threads := range []int{1, 3} {
				for _, width := range []int{1, 3, 17, 64} {
					srcs := pickBatchSources(ref, width)
					opt := DefaultOptions()
					opt.Threads = threads
					opt.Direction = mode
					arena := &Arena{}
					w := cluster.NewWorld(p, cluster.ZeroCost{})
					opt.Arena = arena
					out := RunBatch(w, dg, srcs, opt)
					for s, src := range srcs {
						sref := serial.BFS(ref, src)
						for v := int64(0); v < ref.NumVerts; v++ {
							if out.Dist[s][v] != sref.Dist[v] {
								t.Fatalf("p=%d mode=%v t=%d w=%d search %d (src %d): dist[%d] = %d, serial %d",
									p, mode, threads, width, s, src, v, out.Dist[s][v], sref.Dist[v])
							}
						}
						res := &serial.Result{Source: src, Dist: out.Dist[s], Parent: out.Parent[s]}
						if err := serial.Validate(ref, res, sref); err != nil {
							t.Fatalf("p=%d mode=%v t=%d w=%d search %d: %v", p, mode, threads, width, s, err)
						}
						// Per-search TEPS denominator: degrees over reached.
						var wantEdges, wantLevels int64
						for v := int64(0); v < ref.NumVerts; v++ {
							if sref.Dist[v] != serial.Unreached {
								wantEdges += int64(len(ref.Neighbors(v)))
								if sref.Dist[v] > wantLevels {
									wantLevels = sref.Dist[v]
								}
							}
						}
						if out.TraversedEdges[s] != wantEdges {
							t.Fatalf("search %d: traversed %d, want %d", s, out.TraversedEdges[s], wantEdges)
						}
						if out.Levels[s] != wantLevels {
							t.Fatalf("search %d: levels %d, want %d", s, out.Levels[s], wantLevels)
						}
					}
					arena.Close()
				}
			}
		}
	}
}

// TestRunBatchSharedScanAccounting pins the amortization ledger: the
// batch's shared scan totals never exceed the sum of the sequential
// runs' (each edge scan serves every search that needs it), and the
// unique traversed-edge count equals the degree sum over the union of
// reached vertices — each shared edge counted once even with duplicate
// sources in the batch.
func TestRunBatchSharedScanAccounting(t *testing.T) {
	ref, el := batchTestGraph(t, 9)
	dg, err := Distribute(el, 4)
	if err != nil {
		t.Fatal(err)
	}
	srcs := pickBatchSources(ref, 32)
	opt := DefaultOptions()
	opt.Direction = dirheur.ModeAuto
	w := cluster.NewWorld(4, cluster.ZeroCost{})
	out := RunBatch(w, dg, srcs, opt)

	var seqScanned int64
	for _, src := range srcs {
		ws := cluster.NewWorld(4, cluster.ZeroCost{})
		o := Run(ws, dg, src, opt)
		seqScanned += o.ScannedTopDown + o.ScannedBottomUp
	}
	batchScanned := out.ScannedTopDown + out.ScannedBottomUp
	if batchScanned > seqScanned {
		t.Errorf("batch scanned %d > sequential total %d", batchScanned, seqScanned)
	}

	reached := make(map[int64]bool)
	for s := range srcs {
		for v := int64(0); v < ref.NumVerts; v++ {
			if out.Dist[s][v] != serial.Unreached {
				reached[v] = true
			}
		}
	}
	var wantUnique int64
	for v := range reached {
		wantUnique += int64(len(ref.Neighbors(v)))
	}
	if out.UniqueTraversedEdges != wantUnique {
		t.Errorf("unique traversed %d, want %d", out.UniqueTraversedEdges, wantUnique)
	}
	// A duplicated source must not inflate the unique count: srcs[31]
	// duplicates srcs[0], so the union is what 31 distinct searches reach.
	if out.UniqueTraversedEdges > seqScanned {
		t.Errorf("unique traversed %d exceeds sequential scan total %d", out.UniqueTraversedEdges, seqScanned)
	}
}

// TestRunBatchAmortizesSimTime is the priced version of the tentpole
// claim at test scale: one 64-source batch on the modeled machine must
// finish in well under the simulated time of 64 sequential searches,
// because every level's collectives run once instead of 64 times.
func TestRunBatchAmortizesSimTime(t *testing.T) {
	ref, el := batchTestGraph(t, 10)
	dg, err := Distribute(el, 4)
	if err != nil {
		t.Fatal(err)
	}
	srcs := pickBatchSources(ref, 64)
	m := netmodel.Franklin()
	opt := DefaultOptions()
	opt.Direction = dirheur.ModeAuto
	opt.Price = m

	w := cluster.NewWorld(4, m)
	RunBatch(w, dg, srcs, opt)
	batchTime := w.Stats().MaxClock

	var seqTime float64
	arena := &Arena{}
	defer arena.Close()
	opt.Arena = arena
	for _, src := range srcs {
		ws := cluster.NewWorld(4, m)
		Run(ws, dg, src, opt)
		seqTime += ws.Stats().MaxClock
	}
	if batchTime <= 0 || seqTime <= 0 {
		t.Fatal("no simulated time accumulated")
	}
	if seqTime < 4*batchTime {
		t.Errorf("batch sim time %.6fs amortizes only %.2fx over sequential %.6fs",
			batchTime, seqTime/batchTime, seqTime)
	}
}

// TestRunBatchArenaReuse runs batches of 17 and 3 sources and single
// searches through one arena while Threads goes 1 -> 3 -> 1, and checks
// every distance against the serial oracle and the last batch against
// the first: the recycled mask planes, triple buffers and thread
// scratch (which flat runs share with hybrid ones) must carry no state
// across runs, widths or thread counts.
func TestRunBatchArenaReuse(t *testing.T) {
	ref, el := batchTestGraph(t, 8)
	dg, err := Distribute(el, 5)
	if err != nil {
		t.Fatal(err)
	}
	arena := &Arena{}
	defer arena.Close()
	check := func(what string, s int64, dist []int64) {
		t.Helper()
		for v, d := range serial.BFS(ref, s).Dist {
			if dist[v] != d {
				t.Fatalf("%s: source %d dist[%d] = %d, serial got %d", what, s, v, dist[v], d)
			}
		}
	}
	opt := DefaultOptions()
	opt.Direction = dirheur.ModeAuto
	opt.Arena = arena
	srcs := pickBatchSources(ref, 17)
	first := RunBatch(cluster.NewWorld(5, cluster.ZeroCost{}), dg, srcs, opt)
	for _, threads := range []int{3, 1} {
		o := opt
		o.Threads = threads
		// A different width in between forces the planes to resize down
		// and up; the thread width resizes the worker scratch.
		mid := RunBatch(cluster.NewWorld(5, cluster.ZeroCost{}), dg, srcs[:3], o)
		for k, s := range srcs[:3] {
			check(fmt.Sprintf("threads=%d batch of 3", threads), s, mid.Dist[k])
		}
		one := Run(cluster.NewWorld(5, cluster.ZeroCost{}), dg, srcs[threads], o)
		check(fmt.Sprintf("threads=%d search", threads), srcs[threads], one.Dist)
	}
	again := RunBatch(cluster.NewWorld(5, cluster.ZeroCost{}), dg, srcs, opt)
	for s := range srcs {
		check("batch of 17", srcs[s], again.Dist[s])
		for v := int64(0); v < ref.NumVerts; v++ {
			if first.Dist[s][v] != again.Dist[s][v] || first.Parent[s][v] != again.Parent[s][v] {
				t.Fatalf("arena reuse diverged at search %d vertex %d", s, v)
			}
		}
	}
}
