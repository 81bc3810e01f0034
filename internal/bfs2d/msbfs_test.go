package bfs2d

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/dirheur"
	"repro/internal/graph"
	"repro/internal/netmodel"
	"repro/internal/rmat"
	"repro/internal/serial"
)

func batchTestGraph2D(t *testing.T, scale int) (*graph.CSR, *graph.EdgeList) {
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

func pickBatchSources2D(ref *graph.CSR, width int) []int64 {
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

// TestRunBatch2DMatchesSequential checks the 2D batched driver on square
// and rectangular grids, all direction modes, and flat/threaded blocks:
// batched distances bit-identical to the serial oracle (which the scalar
// Run is already pinned against), parents valid BFS trees.
func TestRunBatch2DMatchesSequential(t *testing.T) {
	ref, el := batchTestGraph2D(t, 8)
	for _, shape := range [][2]int{{1, 1}, {2, 2}, {2, 3}, {3, 2}} {
		pr, pc := shape[0], shape[1]
		for _, threads := range []int{1, 3} {
			dg, err := Distribute(el, pr, pc, threads)
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range []dirheur.Mode{dirheur.ModeTopDown, dirheur.ModeAuto, dirheur.ModeBottomUp} {
				for _, width := range []int{1, 3, 17, 64} {
					srcs := pickBatchSources2D(ref, width)
					opt := defaultOptions()
					opt.Threads = threads
					opt.Direction = mode
					arena := &Arena{}
					opt.Arena = arena
					w := cluster.NewWorld(pr*pc, cluster.ZeroCost{})
					grid := cluster.NewGrid(w, pr, pc)
					out, err := RunBatch(w, grid, dg, srcs, opt)
					if err != nil {
						t.Fatal(err)
					}
					for s, src := range srcs {
						sref := serial.BFS(ref, src)
						for v := int64(0); v < ref.NumVerts; v++ {
							if out.Dist[s][v] != sref.Dist[v] {
								t.Fatalf("%dx%d mode=%v t=%d w=%d search %d (src %d): dist[%d] = %d, serial %d",
									pr, pc, mode, threads, width, s, src, v, out.Dist[s][v], sref.Dist[v])
							}
						}
						res := &serial.Result{Source: src, Dist: out.Dist[s], Parent: out.Parent[s]}
						if err := serial.Validate(ref, res, sref); err != nil {
							t.Fatalf("%dx%d mode=%v t=%d w=%d search %d: %v", pr, pc, mode, threads, width, s, err)
						}
					}
					arena.Close()
				}
			}
		}
	}
}

// TestRunBatch2DAccounting pins the 2D amortization ledger: shared scans
// never exceed the sequential total, and the unique traversed-edge count
// equals the stored-degree sum over the union of reached vertices.
func TestRunBatch2DAccounting(t *testing.T) {
	ref, el := batchTestGraph2D(t, 9)
	dg, err := Distribute(el, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	srcs := pickBatchSources2D(ref, 32)
	opt := defaultOptions()
	opt.Direction = dirheur.ModeAuto
	w := cluster.NewWorld(4, cluster.ZeroCost{})
	grid := cluster.NewGrid(w, 2, 2)
	out, err := RunBatch(w, grid, dg, srcs, opt)
	if err != nil {
		t.Fatal(err)
	}

	var seqScanned int64
	for _, src := range srcs {
		ws := cluster.NewWorld(4, cluster.ZeroCost{})
		gs := cluster.NewGrid(ws, 2, 2)
		o, err := Run(ws, gs, dg, src, opt)
		if err != nil {
			t.Fatal(err)
		}
		seqScanned += o.ScannedTopDown + o.ScannedBottomUp
	}
	if batch := out.ScannedTopDown + out.ScannedBottomUp; batch > seqScanned {
		t.Errorf("batch scanned %d > sequential total %d", batch, seqScanned)
	}

	var wantUnique int64
	for v := int64(0); v < ref.NumVerts; v++ {
		for s := range srcs {
			if out.Dist[s][v] != serial.Unreached {
				wantUnique += dg.ColDegree[v]
				break
			}
		}
	}
	if out.UniqueTraversedEdges != wantUnique {
		t.Errorf("unique traversed %d, want %d", out.UniqueTraversedEdges, wantUnique)
	}
}

// TestRunBatch2DAmortizesSimTime: one 64-source batch must beat 64
// sequential priced searches by a wide simulated-time margin.
func TestRunBatch2DAmortizesSimTime(t *testing.T) {
	_, el := batchTestGraph2D(t, 10)
	dg, err := Distribute(el, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := graph.BuildCSR(el, true)
	srcs := pickBatchSources2D(ref, 64)
	m := netmodel.Franklin()
	opt := defaultOptions()
	opt.Direction = dirheur.ModeAuto
	opt.Price = m

	w := cluster.NewWorld(4, m)
	grid := cluster.NewGrid(w, 2, 2)
	if _, err := RunBatch(w, grid, dg, srcs, opt); err != nil {
		t.Fatal(err)
	}
	batchTime := w.Stats().MaxClock

	var seqTime float64
	arena := &Arena{}
	defer arena.Close()
	opt.Arena = arena
	for _, src := range srcs {
		ws := cluster.NewWorld(4, m)
		gs := cluster.NewGrid(ws, 2, 2)
		if _, err := Run(ws, gs, dg, src, opt); err != nil {
			t.Fatal(err)
		}
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

// TestRunBatch2DRejectsDiag pins the serving contract: the diagonal
// vector layout has no batched path and must error, not panic.
func TestRunBatch2DRejectsDiag(t *testing.T) {
	_, el := batchTestGraph2D(t, 7)
	dg, err := Distribute(el, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := cluster.NewWorld(4, cluster.ZeroCost{})
	grid := cluster.NewGrid(w, 2, 2)
	opt := defaultOptions()
	opt.Vector = DistDiag
	if _, err := RunBatch(w, grid, dg, []int64{1}, opt); err == nil {
		t.Fatal("diagonal layout accepted for batch")
	}
	opt.Vector = Dist2D
	if _, err := RunBatch(w, grid, dg, nil, opt); err == nil {
		t.Fatal("empty batch accepted")
	}
}
