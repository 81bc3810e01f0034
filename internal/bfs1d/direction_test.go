package bfs1d

import (
	"slices"
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

// runDir runs a BFS under the given direction mode and validates the
// tree against the serial oracle.
func runDir(t *testing.T, el *graph.EdgeList, p int, source int64, threads int, mode dirheur.Mode) *levels.Output {
	t.Helper()
	ref, err := graph.BuildCSR(el, true)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := Distribute(el, p)
	if err != nil {
		t.Fatal(err)
	}
	w := cluster.NewWorld(p, cluster.ZeroCost{})
	opt := defaultOptions()
	opt.Threads = threads
	opt.Direction = mode
	out := Run(w, dg, source, opt)
	sref := serial.BFS(ref, source)
	res := &serial.Result{Source: source, Dist: out.Dist, Parent: out.Parent}
	if err := serial.Validate(ref, res, sref); err != nil {
		t.Fatalf("p=%d threads=%d mode=%v: %v", p, threads, mode, err)
	}
	return out
}

func TestDirectionModesAgreeOnRMAT(t *testing.T) {
	el, err := rmat.Graph500(10, 8, 41).GenerateUndirected()
	if err != nil {
		t.Fatal(err)
	}
	src := goodSource(t, el)
	for _, p := range []int{1, 4, 7} {
		for _, threads := range []int{1, 4} {
			td := runDir(t, el, p, src, threads, dirheur.ModeTopDown)
			bu := runDir(t, el, p, src, threads, dirheur.ModeBottomUp)
			auto := runDir(t, el, p, src, threads, dirheur.ModeAuto)
			for v := range td.Dist {
				if bu.Dist[v] != td.Dist[v] || auto.Dist[v] != td.Dist[v] {
					t.Fatalf("p=%d t=%d: dist[%d] differs: td=%d bu=%d auto=%d",
						p, threads, v, td.Dist[v], bu.Dist[v], auto.Dist[v])
				}
			}
			if td.Levels != bu.Levels || td.Levels != auto.Levels {
				t.Fatalf("p=%d t=%d: level counts differ: %d/%d/%d",
					p, threads, td.Levels, bu.Levels, auto.Levels)
			}
		}
	}
}

// TestDirectionScannedAccounting checks the phase-split scanned-edge
// invariants: a pure top-down run scans exactly the traversed-edge
// volume, bottom-up runs record their work in the bottom-up counter,
// and on an R-MAT graph the auto heuristic scans strictly less than the
// push-only baseline (the middle-level work savings).
func TestDirectionScannedAccounting(t *testing.T) {
	el, err := rmat.Graph500(10, 8, 43).GenerateUndirected()
	if err != nil {
		t.Fatal(err)
	}
	src := goodSource(t, el)
	td := runDir(t, el, 4, src, 1, dirheur.ModeTopDown)
	if td.ScannedBottomUp != 0 {
		t.Errorf("top-down run recorded %d bottom-up edges", td.ScannedBottomUp)
	}
	if td.ScannedTopDown != td.TraversedEdges {
		t.Errorf("top-down scanned %d edges, want TraversedEdges %d", td.ScannedTopDown, td.TraversedEdges)
	}
	bu := runDir(t, el, 4, src, 1, dirheur.ModeBottomUp)
	if bu.ScannedTopDown != 0 {
		t.Errorf("bottom-up run recorded %d top-down edges", bu.ScannedTopDown)
	}
	if bu.ScannedBottomUp == 0 {
		t.Error("bottom-up run recorded no scanned edges")
	}
	auto := runDir(t, el, 4, src, 1, dirheur.ModeAuto)
	if auto.ScannedBottomUp == 0 {
		t.Error("auto run never switched to bottom-up on an R-MAT graph")
	}
	total := auto.ScannedTopDown + auto.ScannedBottomUp
	if total >= td.ScannedTopDown {
		t.Errorf("auto scanned %d edges, not below top-down-only %d", total, td.ScannedTopDown)
	}
}

// TestSymmetricAliasMatchesTranspose: for a symmetrized edge list the
// in-adjacency equals the push CSR, so the Symmetric fast path (alias,
// no O(m) copy) must produce exactly the transpose-built results.
func TestSymmetricAliasMatchesTranspose(t *testing.T) {
	el, err := rmat.Graph500(9, 8, 67).GenerateUndirected()
	if err != nil {
		t.Fatal(err)
	}
	src := goodSource(t, el)
	run := func(symmetric bool) *levels.Output {
		dg, err := Distribute(el, 4)
		if err != nil {
			t.Fatal(err)
		}
		dg.Symmetric = symmetric
		w := cluster.NewWorld(4, cluster.ZeroCost{})
		opt := defaultOptions()
		opt.Direction = dirheur.ModeBottomUp
		return Run(w, dg, src, opt)
	}
	alias, built := run(true), run(false)
	for v := range alias.Dist {
		if alias.Dist[v] != built.Dist[v] || alias.Parent[v] != built.Parent[v] {
			t.Fatalf("vertex %d: alias (%d,%d) != transpose-built (%d,%d)",
				v, alias.Dist[v], alias.Parent[v], built.Dist[v], built.Parent[v])
		}
	}
	if alias.ScannedBottomUp != built.ScannedBottomUp {
		t.Errorf("scanned %d != %d", alias.ScannedBottomUp, built.ScannedBottomUp)
	}
}

func TestDirectionTraceProfiles(t *testing.T) {
	el, err := rmat.Graph500(9, 8, 47).GenerateUndirected()
	if err != nil {
		t.Fatal(err)
	}
	src := goodSource(t, el)
	dg, err := Distribute(el, 4)
	if err != nil {
		t.Fatal(err)
	}
	w := cluster.NewWorld(4, cluster.ZeroCost{})
	opt := defaultOptions()
	opt.Direction = dirheur.ModeAuto
	opt.Trace = true
	out := Run(w, dg, src, opt)
	// One scanned/direction entry per executed iteration: the final
	// iteration discovers nothing, so one more than LevelFrontier.
	if len(out.LevelScanned) != len(out.LevelFrontier)+1 {
		t.Fatalf("LevelScanned has %d entries, want %d", len(out.LevelScanned), len(out.LevelFrontier)+1)
	}
	if len(out.LevelBottomUp) != len(out.LevelScanned) {
		t.Fatalf("LevelBottomUp has %d entries, want %d", len(out.LevelBottomUp), len(out.LevelScanned))
	}
	var td, bu int64
	for l, s := range out.LevelScanned {
		if out.LevelBottomUp[l] {
			bu += s
		} else {
			td += s
		}
	}
	if td != out.ScannedTopDown || bu != out.ScannedBottomUp {
		t.Errorf("per-level trace sums (%d, %d) != phase totals (%d, %d)",
			td, bu, out.ScannedTopDown, out.ScannedBottomUp)
	}
}

func TestDirectionLineAndIsolated(t *testing.T) {
	// High-diameter line graph: auto must not lose correctness when the
	// heuristic never (or briefly) switches; bottom-up-only stays
	// correct even with single-vertex frontiers.
	const n = 48
	el := &graph.EdgeList{NumVerts: n}
	for i := int64(0); i < n-1; i++ {
		el.Edges = append(el.Edges, graph.Edge{U: i, V: i + 1})
	}
	sym := el.Symmetrize()
	for _, mode := range []dirheur.Mode{dirheur.ModeAuto, dirheur.ModeBottomUp} {
		out := runDir(t, sym, 4, 0, 1, mode)
		if out.Levels != n-1 {
			t.Errorf("mode %v: levels = %d, want %d", mode, out.Levels, n-1)
		}
	}
	// Disconnected graph with an isolated source.
	iso := (&graph.EdgeList{NumVerts: 10, Edges: []graph.Edge{{U: 1, V: 2}}}).Symmetrize()
	for _, mode := range []dirheur.Mode{dirheur.ModeAuto, dirheur.ModeBottomUp} {
		out := runDir(t, iso, 3, 9, 1, mode)
		for v := 0; v < 9; v++ {
			if out.Dist[v] != serial.Unreached {
				t.Errorf("mode %v: vertex %d reached from isolated source", mode, v)
			}
		}
	}
}

// TestDirectionPropertyRandom cross-checks all three modes against the
// serial oracle on random graphs, rank counts, and thread widths.
func TestDirectionPropertyRandom(t *testing.T) {
	check := func(seed uint64) bool {
		rng := prng.New(seed)
		n := int64(rng.Intn(80) + 4)
		el := &graph.EdgeList{NumVerts: n}
		m := rng.Intn(250)
		for k := 0; k < m; k++ {
			el.Edges = append(el.Edges, graph.Edge{U: rng.Int64n(n), V: rng.Int64n(n)})
		}
		sym := el.Symmetrize()
		p := rng.Intn(7) + 1
		if int64(p) > n {
			p = int(n)
		}
		source := rng.Int64n(n)
		ref, err := graph.BuildCSR(sym, true)
		if err != nil {
			return false
		}
		dg, err := Distribute(sym, p)
		if err != nil {
			return false
		}
		sref := serial.BFS(ref, source)
		for _, mode := range []dirheur.Mode{dirheur.ModeAuto, dirheur.ModeBottomUp} {
			w := cluster.NewWorld(p, cluster.ZeroCost{})
			opt := defaultOptions()
			opt.Threads = rng.Intn(3) + 1
			opt.Direction = mode
			out := Run(w, dg, source, opt)
			res := &serial.Result{Source: source, Dist: out.Dist, Parent: out.Parent}
			if serial.Validate(ref, res, sref) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestDirectionLiveMaskBuiltOnce pins the 1D live-row mask: Ins gives
// every in-adjacency local one mask whose bit r is set exactly when
// XAdj[r] != XAdj[r+1], the pull view aliases it, and two bottom-up
// searches on one graph leave it in place, so they read that one mask
// rather than one rebuilt per search or per bottom-up entry. Symmetric
// graphs share the push locals, directed ones their transpose's.
func TestDirectionLiveMaskBuiltOnce(t *testing.T) {
	for _, rg := range referenceGraphs(t) {
		csr, err := graph.BuildCSR(rg.el, true)
		if err != nil {
			t.Fatal(err)
		}
		const p = 3
		dg, err := FromCSR(csr, p)
		if err != nil {
			t.Fatal(err)
		}
		dg.Symmetric = rg.name != "directed"
		ins := dg.Ins()
		masks := make([]*uint64, p)
		for rank, lg := range ins {
			rows := len(lg.XAdj) - 1
			if len(lg.live) != (rows+63)/64 {
				t.Fatalf("%s rank %d: %d mask words for %d rows", rg.name, rank, len(lg.live), rows)
			}
			for r := 0; r < rows; r++ {
				if live := lg.live[r/64]>>uint(r%64)&1 == 1; live != (lg.XAdj[r] != lg.XAdj[r+1]) {
					t.Fatalf("%s rank %d row %d: live bit %v, degree %d", rg.name, rank, r, live, lg.XAdj[r+1]-lg.XAdj[r])
				}
			}
			if pv := lg.PullView(dg.Part.N); &pv.Live[0] != &lg.live[0] || pv.LiveOff != 0 {
				t.Fatalf("%s rank %d: the pull view does not alias the mask", rg.name, rank)
			}
			masks[rank] = &lg.live[0]
		}
		ref := serial.BFS(csr, goodSource(t, rg.el))
		for search := 0; search < 2; search++ {
			opt := defaultOptions()
			opt.Threads, opt.Direction = 2, dirheur.ModeBottomUp
			out := Run(cluster.NewWorld(p, cluster.ZeroCost{}), dg, ref.Source, opt)
			if !slices.Equal(out.Dist, ref.Dist) {
				t.Fatalf("%s search %d: distances differ from the serial search's", rg.name, search)
			}
		}
		for rank, lg := range dg.Ins() {
			if lg != ins[rank] || &lg.live[0] != masks[rank] {
				t.Fatalf("%s rank %d: the searches rebuilt the in-adjacency or its mask", rg.name, rank)
			}
		}
	}
}
