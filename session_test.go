package pbfs

import (
	"strings"
	"sync"
	"testing"
)

// sessionAlgorithms is every public algorithm; ranks 4 works for all
// (the 2D variants need a square).
var sessionAlgorithms = []Algorithm{
	OneDFlat, OneDHybrid, TwoDFlat, TwoDHybrid, Reference, PBGL,
}

// sameResult fails the test unless a and b agree on every field a
// reused engine could corrupt: outputs, work accounting, and the
// simulated-time profile.
func sameResult(t *testing.T, label string, fresh, reused *Result) {
	t.Helper()
	if fresh.Source != reused.Source {
		t.Fatalf("%s: source %d != %d", label, reused.Source, fresh.Source)
	}
	for v := range fresh.Dist {
		if fresh.Dist[v] != reused.Dist[v] {
			t.Fatalf("%s: dist[%d] = %d, fresh BFS got %d", label, v, reused.Dist[v], fresh.Dist[v])
		}
		if fresh.Parent[v] != reused.Parent[v] {
			t.Fatalf("%s: parent[%d] = %d, fresh BFS got %d", label, v, reused.Parent[v], fresh.Parent[v])
		}
	}
	if fresh.Levels != reused.Levels || fresh.TraversedEdges != reused.TraversedEdges {
		t.Fatalf("%s: levels/edges %d/%d, fresh BFS got %d/%d", label,
			reused.Levels, reused.TraversedEdges, fresh.Levels, fresh.TraversedEdges)
	}
	if fresh.ScannedTopDown != reused.ScannedTopDown || fresh.ScannedBottomUp != reused.ScannedBottomUp {
		t.Fatalf("%s: scanned %d+%d, fresh BFS got %d+%d", label,
			reused.ScannedTopDown, reused.ScannedBottomUp, fresh.ScannedTopDown, fresh.ScannedBottomUp)
	}
	if fresh.SimTime != reused.SimTime || fresh.CommTime != reused.CommTime {
		t.Fatalf("%s: sim/comm time %v/%v, fresh BFS got %v/%v", label,
			reused.SimTime, reused.CommTime, fresh.SimTime, fresh.CommTime)
	}
}

// TestSessionReuseBitIdentical drives one shared session through all
// six algorithms and all three direction policies, twice per
// combination, and demands outputs bit-identical to a fresh one-shot
// BFS — distances, parents, work counters, and simulated clocks alike.
// The second pass reuses every engine the first pass built (arenas
// warm, direction policies crossing on the same engine).
func TestSessionReuseBitIdentical(t *testing.T) {
	g := testGraph(t)
	srcs := g.Sources(2, 0x5e55)
	if len(srcs) < 2 {
		t.Fatal("need two sources")
	}
	sess := NewSession()
	defer sess.Close()
	for pass := 0; pass < 2; pass++ {
		src := srcs[pass]
		for _, algo := range sessionAlgorithms {
			for _, dir := range []Direction{Auto, TopDownOnly, BottomUpOnly} {
				opt := Options{Algorithm: algo, Ranks: 4, Machine: "franklin", Direction: dir}
				label := algo.String() + "/" + dir.String()
				fresh, err := g.BFS(src, opt)
				if err != nil {
					t.Fatalf("%s: fresh BFS: %v", label, err)
				}
				reused, err := sess.Search(g, src, opt)
				if err != nil {
					t.Fatalf("%s: session search: %v", label, err)
				}
				sameResult(t, label, fresh, reused)
				if err := g.Validate(reused); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			}
		}
	}
}

// TestSessionAcrossScales rebinds the engines of one session to graphs
// of different scales (bigger, then smaller, then back), so every
// arena must resize correctly in both directions.
func TestSessionAcrossScales(t *testing.T) {
	small := testGraph(t)
	big, err := NewRMATGraph(12, 8, 0xabc)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession()
	defer sess.Close()
	for _, algo := range []Algorithm{OneDHybrid, TwoDFlat, TwoDHybrid} {
		for _, dir := range []Direction{Auto, BottomUpOnly} {
			opt := Options{Algorithm: algo, Ranks: 4, Machine: "franklin", Direction: dir}
			label := algo.String() + "/" + dir.String()
			for _, g := range []*Graph{small, big, small, big} {
				src := g.Sources(1, 7)[0]
				fresh, err := g.BFS(src, opt)
				if err != nil {
					t.Fatalf("%s: fresh BFS: %v", label, err)
				}
				reused, err := sess.Search(g, src, opt)
				if err != nil {
					t.Fatalf("%s: session search: %v", label, err)
				}
				sameResult(t, label, fresh, reused)
				if err := g.Validate(reused); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			}
		}
	}
}

// TestSessionOneDistributePerConfig is the acceptance assertion: a
// whole Graph 500 batch pays for exactly one distribution per engine
// configuration, repeated searches and direction changes pay none, and
// a layout change pays exactly one more.
func TestSessionOneDistributePerConfig(t *testing.T) {
	g := testGraph(t)
	before := distributions.Load()
	if _, err := g.Benchmark(Options{Algorithm: TwoDFlat, Ranks: 4, Machine: "franklin"}, 5, 0x77); err != nil {
		t.Fatal(err)
	}
	if got := distributions.Load() - before; got != 1 {
		t.Errorf("5-search benchmark performed %d distributions, want 1", got)
	}

	sess := NewSession()
	defer sess.Close()
	src := g.Sources(1, 1)[0]
	search := func(opt Options) {
		t.Helper()
		if _, err := sess.Search(g, src, opt); err != nil {
			t.Fatal(err)
		}
	}
	before = distributions.Load()
	base := Options{Algorithm: OneDFlat, Ranks: 4}
	search(base)                         // first search: 1 distribution
	search(base)                         // cached engine
	search(Options{Algorithm: OneDFlat}) // Ranks 0 normalizes to 4: same engine
	{
		// Knobs the 1D driver ignores normalize out of the key.
		o := base
		o.GridRows, o.GridCols = 2, 2
		search(o)
	}
	for _, dir := range []Direction{TopDownOnly, BottomUpOnly} {
		o := base
		o.Direction = dir
		search(o) // per-search field: same engine
	}
	if got := distributions.Load() - before; got != 1 {
		t.Errorf("one 1D configuration performed %d distributions, want 1", got)
	}
	before = distributions.Load()
	search(Options{Algorithm: OneDFlat, Ranks: 2}) // layout change: new engine
	if got := distributions.Load() - before; got != 1 {
		t.Errorf("changed layout performed %d distributions, want 1", got)
	}
}

// TestSessionErrors exercises the engine layer's error paths: every bad
// configuration must surface as an error from Search, never a panic.
func TestSessionErrors(t *testing.T) {
	g := testGraph(t)
	sess := NewSession()
	src := g.Sources(1, 1)[0]
	cases := []struct {
		name string
		opt  Options
		want string
	}{
		{"grid/ranks mismatch", Options{Algorithm: TwoDHybrid, Ranks: 6, GridRows: 2, GridCols: 2}, "factorable"},
		{"indivisible grid rows", Options{Algorithm: TwoDFlat, Ranks: 6, GridRows: 4}, "factorable"},
		{"unknown machine", Options{Machine: "nonesuch"}, "machine"},
		{"bad algorithm", Options{Algorithm: Algorithm(99)}, "algorithm"},
	}
	for _, c := range cases {
		if _, err := sess.Search(g, src, c.opt); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want mention of %q", c.name, err, c.want)
		}
	}
	if _, err := sess.Search(g, g.NumVerts(), Options{}); err == nil {
		t.Error("out-of-range source accepted")
	}
	if _, err := sess.Search(nil, 0, Options{}); err == nil {
		t.Error("nil graph accepted")
	}
	sess.Close()
	sess.Close() // idempotent
	if _, err := sess.Search(g, src, Options{}); err == nil {
		t.Error("search on a closed session accepted")
	}
}

// TestSessionDirectedGraphs checks that rebinding between directed and
// undirected graphs keeps the 1D pull structures honest (Symmetric must
// track the bound graph, not the engine's first graph).
func TestSessionDirectedGraphs(t *testing.T) {
	und := testGraph(t)
	dir, err := NewDirectedGraph(6, [][2]int64{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 5}})
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession()
	defer sess.Close()
	opt := Options{Algorithm: OneDFlat, Ranks: 4, Direction: BottomUpOnly}
	for _, g := range []*Graph{und, dir, und, dir} {
		src := g.Sources(1, 3)[0]
		fresh, err := g.BFS(src, opt)
		if err != nil {
			t.Fatal(err)
		}
		reused, err := sess.Search(g, src, opt)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "directed/undirected rebind", fresh, reused)
		if err := g.Validate(reused); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSessionPool checks the serving layer's session checkout surface:
// Get/Put round-robins distinct warm sessions, concurrent checkouts
// never hand the same session to two holders at once, and Close drains
// and closes every pooled session exactly once (idempotently).
func TestSessionPool(t *testing.T) {
	g := testGraph(t)
	src := g.Sources(1, 7)[0]
	opt := Options{Algorithm: OneDFlat, Ranks: 4}

	pool := NewSessionPool(3)
	if pool.Size() != 3 {
		t.Fatalf("pool size %d, want 3", pool.Size())
	}
	// Checking out all three yields three distinct sessions, each usable.
	a, b, c := pool.Get(), pool.Get(), pool.Get()
	if a == b || b == c || a == c {
		t.Fatal("pool handed out duplicate sessions")
	}
	for _, s := range []*Session{a, b, c} {
		if _, err := s.Search(g, src, opt); err != nil {
			t.Fatal(err)
		}
	}
	pool.Put(a)
	pool.Put(b)
	pool.Put(c)

	// Hammer Get/Search/Put from more goroutines than sessions: the
	// race detector (scripts/ci.sh smoke) would flag any double
	// checkout, since Session.Search is not safe for concurrent use.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 4; j++ {
				s := pool.Get()
				if _, err := s.Search(g, src, opt); err != nil {
					t.Error(err)
				}
				pool.Put(s)
			}
		}()
	}
	wg.Wait()

	pool.Close()
	pool.Close() // idempotent
	// The members drained by Close are themselves closed: the reference
	// we still hold must refuse further searches.
	if _, err := a.Search(g, src, opt); err == nil {
		t.Error("search on a closed pooled session accepted")
	}

	if NewSessionPool(0).Size() != 1 {
		t.Error("non-positive pool size should clamp to 1")
	}
}

// TestHeldResultSurvivesLaterSearches pins the ownership contract the
// drivers' in-place writes must keep: a Result's Dist and Parent belong
// to the caller, so a later Search or BFSBatch on the same session —
// same engine, warm arenas — neither overwrites them nor shares their
// storage. The serving layer's plane cache holds batch results on
// exactly this promise.
func TestHeldResultSurvivesLaterSearches(t *testing.T) {
	g := testGraph(t)
	srcs := g.Sources(4, 0x7e1d)
	if len(srcs) < 4 {
		t.Fatal("need four sources")
	}
	// snapshot copies a result's outputs; check fails unless first
	// still matches its snapshot after the later results have been
	// scribbled over, which would show through any storage they share.
	snapshot := func(r *Result) [2][]int64 {
		return [2][]int64{append([]int64(nil), r.Dist...), append([]int64(nil), r.Parent...)}
	}
	check := func(label string, first *Result, snap [2][]int64, later []*Result) {
		t.Helper()
		for _, r := range later {
			for v := range r.Dist {
				r.Dist[v], r.Parent[v] = -2, -2
			}
		}
		for v := range snap[0] {
			if first.Dist[v] != snap[0][v] || first.Parent[v] != snap[1][v] {
				t.Fatalf("%s: vertex %d changed to dist/parent %d/%d, was %d/%d",
					label, v, first.Dist[v], first.Parent[v], snap[0][v], snap[1][v])
			}
		}
	}
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"1d-flat", Options{Algorithm: OneDFlat, Ranks: 4}},
		{"1d-hybrid", Options{Algorithm: OneDHybrid, Ranks: 4, Threads: 2}},
		{"2d-flat", Options{Algorithm: TwoDFlat, Ranks: 4}},
		{"2d-hybrid", Options{Algorithm: TwoDHybrid, Ranks: 4, Threads: 2}},
	} {
		sess := NewSession()
		first, err := sess.Search(g, srcs[0], tc.opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		snap := snapshot(first)
		second, err := sess.Search(g, srcs[1], tc.opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		check(tc.name+"/search", first, snap, []*Result{second})

		b1, err := sess.BFSBatch(g, srcs[:2], tc.opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		snaps := [][2][]int64{snapshot(b1.Results[0]), snapshot(b1.Results[1])}
		b2, err := sess.BFSBatch(g, srcs[2:4], tc.opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i, r := range b1.Results {
			check(tc.name+"/batch", r, snaps[i], b2.Results)
		}
		sess.Close()
	}
}
