package bfs2d

import (
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/dirheur"
	"repro/internal/graph"
	"repro/internal/levels"
	"repro/internal/prng"
	"repro/internal/rmat"
	"repro/internal/serial"
)

// runDir2D runs a 2D BFS under the given direction mode and validates
// the tree against the serial oracle.
func runDir2D(t *testing.T, el *graph.EdgeList, pr, threads int, source int64, mode dirheur.Mode) *levels.Output {
	t.Helper()
	ref, err := graph.BuildCSR(el, true)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := Distribute(el, pr, pr, threads)
	if err != nil {
		t.Fatal(err)
	}
	w := cluster.NewWorld(pr*pr, cluster.ZeroCost{})
	grid := cluster.NewGrid(w, pr, pr)
	opt := DefaultOptions()
	opt.Threads = threads
	opt.Direction = mode
	out, err := Run(w, grid, dg, source, opt)
	if err != nil {
		t.Fatal(err)
	}
	sref := serial.BFS(ref, source)
	res := &serial.Result{Source: source, Dist: out.Dist, Parent: out.Parent}
	if err := serial.Validate(ref, res, sref); err != nil {
		t.Fatalf("pr=%d threads=%d mode=%v: %v", pr, threads, mode, err)
	}
	return out
}

func bestSource(t *testing.T, el *graph.EdgeList) int64 {
	t.Helper()
	ref, err := graph.BuildCSR(el, true)
	if err != nil {
		t.Fatal(err)
	}
	var best, bestDeg int64
	for v := int64(0); v < ref.NumVerts; v++ {
		if d := ref.Degree(v); d > bestDeg {
			best, bestDeg = v, d
		}
	}
	return best
}

func TestDirection2DModesAgreeOnRMAT(t *testing.T) {
	el, err := rmat.Graph500(10, 8, 53).GenerateUndirected()
	if err != nil {
		t.Fatal(err)
	}
	src := bestSource(t, el)
	for _, pr := range []int{1, 2, 3} {
		for _, threads := range []int{1, 4} {
			td := runDir2D(t, el, pr, threads, src, dirheur.ModeTopDown)
			bu := runDir2D(t, el, pr, threads, src, dirheur.ModeBottomUp)
			auto := runDir2D(t, el, pr, threads, src, dirheur.ModeAuto)
			for v := range td.Dist {
				if bu.Dist[v] != td.Dist[v] || auto.Dist[v] != td.Dist[v] {
					t.Fatalf("pr=%d t=%d: dist[%d] differs: td=%d bu=%d auto=%d",
						pr, threads, v, td.Dist[v], bu.Dist[v], auto.Dist[v])
				}
			}
			if td.Levels != bu.Levels || td.Levels != auto.Levels {
				t.Fatalf("pr=%d t=%d: level counts differ: %d/%d/%d",
					pr, threads, td.Levels, bu.Levels, auto.Levels)
			}
		}
	}
}

func TestDirection2DScannedAccounting(t *testing.T) {
	el, err := rmat.Graph500(10, 8, 59).GenerateUndirected()
	if err != nil {
		t.Fatal(err)
	}
	src := bestSource(t, el)
	td := runDir2D(t, el, 2, 1, src, dirheur.ModeTopDown)
	if td.ScannedBottomUp != 0 || td.ScannedTopDown == 0 {
		t.Errorf("top-down scanned split (%d, %d) malformed", td.ScannedTopDown, td.ScannedBottomUp)
	}
	auto := runDir2D(t, el, 2, 1, src, dirheur.ModeAuto)
	if auto.ScannedBottomUp == 0 {
		t.Error("auto run never switched to bottom-up on an R-MAT graph")
	}
	if total := auto.ScannedTopDown + auto.ScannedBottomUp; total >= td.ScannedTopDown {
		t.Errorf("auto scanned %d entries, not below top-down-only %d", total, td.ScannedTopDown)
	}
}

func TestDirection2DDirected(t *testing.T) {
	// Directed graphs exercise the pull over asymmetric blocks: the
	// transposed storage means row scans see exactly the in-edges.
	rng := prng.New(0xd2d)
	const n = 500
	el := &graph.EdgeList{NumVerts: n}
	for k := 0; k < 2500; k++ {
		el.Edges = append(el.Edges, graph.Edge{U: rng.Int64n(n), V: rng.Int64n(n)})
	}
	ref, err := graph.BuildCSR(el, true)
	if err != nil {
		t.Fatal(err)
	}
	src := bestSource(t, el)
	sref := serial.BFS(ref, src)
	for _, mode := range []dirheur.Mode{dirheur.ModeTopDown, dirheur.ModeBottomUp, dirheur.ModeAuto} {
		dg, err := Distribute(el, 2, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		w := cluster.NewWorld(4, cluster.ZeroCost{})
		grid := cluster.NewGrid(w, 2, 2)
		opt := DefaultOptions()
		opt.Direction = mode
		out, err := Run(w, grid, dg, src, opt)
		if err != nil {
			t.Fatal(err)
		}
		for v := range out.Dist {
			if out.Dist[v] != sref.Dist[v] {
				t.Fatalf("mode %v: dist[%d] = %d, want %d", mode, v, out.Dist[v], sref.Dist[v])
			}
		}
	}
}

func TestDirectionDiagRejectsBottomUp(t *testing.T) {
	el, err := rmat.Graph500(8, 8, 61).GenerateUndirected()
	if err != nil {
		t.Fatal(err)
	}
	dg, err := Distribute(el, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := cluster.NewWorld(4, cluster.ZeroCost{})
	grid := cluster.NewGrid(w, 2, 2)
	opt := DefaultOptions()
	opt.Vector = DistDiag
	opt.Direction = dirheur.ModeAuto
	if _, err := Run(w, grid, dg, 0, opt); err == nil {
		t.Error("diagonal vectors with a non-top-down direction did not error")
	}
}

// TestDirection2DPropertyRandom cross-checks auto and bottom-up modes
// against the serial oracle on random graphs.
func TestDirection2DPropertyRandom(t *testing.T) {
	check := func(seed uint64) bool {
		rng := prng.New(seed)
		n := int64(rng.Intn(90) + 9)
		el := &graph.EdgeList{NumVerts: n}
		for k := 0; k < rng.Intn(300); k++ {
			el.Edges = append(el.Edges, graph.Edge{U: rng.Int64n(n), V: rng.Int64n(n)})
		}
		sym := el.Symmetrize()
		source := rng.Int64n(n)
		ref, err := graph.BuildCSR(sym, true)
		if err != nil {
			return false
		}
		sref := serial.BFS(ref, source)
		pr := rng.Intn(3) + 1
		dg, err := Distribute(sym, pr, pr, 1)
		if err != nil {
			return false
		}
		for _, mode := range []dirheur.Mode{dirheur.ModeAuto, dirheur.ModeBottomUp} {
			w := cluster.NewWorld(pr*pr, cluster.ZeroCost{})
			grid := cluster.NewGrid(w, pr, pr)
			opt := DefaultOptions()
			opt.Threads = rng.Intn(3) + 1
			opt.Direction = mode
			dg2 := dg
			if opt.Threads > 1 {
				// strip count is fixed at distribution time
				dg2, err = Distribute(sym, pr, pr, opt.Threads)
				if err != nil {
					return false
				}
			}
			out, err := Run(w, grid, dg2, source, opt)
			if err != nil {
				return false
			}
			res := &serial.Result{Source: source, Dist: out.Dist, Parent: out.Parent}
			if serial.Validate(ref, res, sref) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
