package pbfs

import "testing"

// directionsAgree runs one search under all three direction policies,
// validates each result, and checks that distances (and therefore the
// level structure) are identical — parents may differ between push and
// pull but every tree must pass the oracle.
func directionsAgree(t *testing.T, g *Graph, src int64, opt Options) map[Direction]*Result {
	t.Helper()
	out := map[Direction]*Result{}
	for _, dir := range []Direction{Auto, TopDownOnly, BottomUpOnly} {
		o := opt
		o.Direction = dir
		res, err := g.BFS(src, o)
		if err != nil {
			t.Fatalf("%v/%v: %v", opt.Algorithm, dir, err)
		}
		if err := g.Validate(res); err != nil {
			t.Fatalf("%v/%v failed validation: %v", opt.Algorithm, dir, err)
		}
		out[dir] = res
	}
	td := out[TopDownOnly]
	for _, dir := range []Direction{Auto, BottomUpOnly} {
		for v := range td.Dist {
			if out[dir].Dist[v] != td.Dist[v] {
				t.Fatalf("%v/%v: dist[%d] = %d, want %d", opt.Algorithm, dir, v, out[dir].Dist[v], td.Dist[v])
			}
		}
		if out[dir].TraversedEdges != td.TraversedEdges {
			t.Fatalf("%v/%v: TraversedEdges %d != top-down %d",
				opt.Algorithm, dir, out[dir].TraversedEdges, td.TraversedEdges)
		}
	}
	return out
}

func TestDirectionPoliciesOnRMAT(t *testing.T) {
	g := testGraph(t)
	src := g.Sources(1, 11)[0]
	for _, algo := range []Algorithm{OneDFlat, OneDHybrid, TwoDFlat, TwoDHybrid} {
		ranks := 9
		if algo == OneDFlat || algo == OneDHybrid {
			ranks = 6
		}
		out := directionsAgree(t, g, src, Options{Algorithm: algo, Ranks: ranks, Machine: "franklin"})
		td, auto := out[TopDownOnly], out[Auto]
		if td.ScannedBottomUp != 0 {
			t.Errorf("%v: top-down-only run recorded bottom-up work", algo)
		}
		if algo == OneDFlat || algo == OneDHybrid {
			// The 1D push scans every stored adjacency slot of the
			// reached set: exactly both directions of each traversed
			// undirected edge.
			if td.ScannedTopDown != 2*td.TraversedEdges {
				t.Errorf("%v: top-down scanned %d, want %d", algo, td.ScannedTopDown, 2*td.TraversedEdges)
			}
		}
		if auto.ScannedBottomUp == 0 {
			t.Errorf("%v: auto never ran bottom-up on an R-MAT graph", algo)
		}
		if total := auto.ScannedTopDown + auto.ScannedBottomUp; total >= td.ScannedTopDown {
			t.Errorf("%v: auto scanned %d, not below top-down-only %d", algo, total, td.ScannedTopDown)
		}
	}
}

func TestDirectionPoliciesOnDirectedGraph(t *testing.T) {
	// Directed cycle with chords: bottom-up must follow in-edges, not
	// out-edges, to produce correct directed distances.
	edges := [][2]int64{}
	const n = 60
	for i := int64(0); i < n; i++ {
		edges = append(edges, [2]int64{i, (i + 1) % n})
	}
	for i := int64(0); i < n; i += 7 {
		edges = append(edges, [2]int64{i, (i + 13) % n})
	}
	g, err := NewDirectedGraph(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algorithm{OneDFlat, TwoDFlat} {
		directionsAgree(t, g, 3, Options{Algorithm: algo, Ranks: 4})
	}
}

func TestDirectionPoliciesOnDisconnectedGraph(t *testing.T) {
	// Two components plus isolated vertices; search from the smaller
	// component, so most of the graph stays Unreached.
	g, err := NewGraphFromEdges(20, [][2]int64{
		{0, 1}, {1, 2}, {2, 0}, // component A
		{5, 6}, {6, 7}, {7, 8}, {8, 9}, // component B
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algorithm{OneDFlat, TwoDFlat} {
		out := directionsAgree(t, g, 5, Options{Algorithm: algo, Ranks: 4})
		for _, res := range out {
			if res.Dist[0] != Unreached || res.Dist[19] != Unreached {
				t.Fatalf("%v: foreign component reached", algo)
			}
			if res.Dist[9] != 4 {
				t.Fatalf("%v: dist[9] = %d, want 4 (path 5-6-7-8-9)", algo, res.Dist[9])
			}
		}
	}
}

func TestDirectionPoliciesOnSingleVertexGraph(t *testing.T) {
	g, err := NewGraphFromEdges(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algorithm{OneDFlat, TwoDFlat} {
		out := directionsAgree(t, g, 0, Options{Algorithm: algo, Ranks: 1})
		for _, res := range out {
			if res.Dist[0] != 0 || res.Levels != 0 {
				t.Fatalf("%v: single-vertex result %+v", algo, res)
			}
		}
	}
}

func TestDirectionTrace(t *testing.T) {
	g := testGraph(t)
	src := g.Sources(1, 13)[0]
	res, err := g.BFS(src, Options{Algorithm: OneDFlat, Ranks: 4, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LevelScanned) != len(res.LevelFrontier)+1 {
		t.Fatalf("LevelScanned has %d entries, want %d", len(res.LevelScanned), len(res.LevelFrontier)+1)
	}
	if len(res.LevelBottomUp) != len(res.LevelScanned) {
		t.Fatalf("LevelBottomUp has %d entries, want %d", len(res.LevelBottomUp), len(res.LevelScanned))
	}
	var td, bu int64
	for l, s := range res.LevelScanned {
		if res.LevelBottomUp[l] {
			bu += s
		} else {
			td += s
		}
	}
	if td != res.ScannedTopDown || bu != res.ScannedBottomUp {
		t.Errorf("trace sums (%d, %d) != phase totals (%d, %d)", td, bu, res.ScannedTopDown, res.ScannedBottomUp)
	}
}

func TestDirectionOptionErrors(t *testing.T) {
	g := testGraph(t)
	src := g.Sources(1, 14)[0]
	if _, err := g.BFS(src, Options{Direction: Direction(42)}); err == nil {
		t.Error("unknown direction accepted")
	}
}

func TestDirectionBenchmarkValidatesAuto(t *testing.T) {
	// The Graph 500 protocol end to end under the default (auto)
	// policy: every search oracle-validated.
	g, err := NewRMATGraph(9, 8, 0xabc)
	if err != nil {
		t.Fatal(err)
	}
	st, err := g.Benchmark(Options{Algorithm: TwoDHybrid, Ranks: 4, Machine: "hopper"}, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if st.NumSearches != 4 || st.HarmonicMeanTEPS <= 0 {
		t.Errorf("unexpected batch stats %+v", st)
	}
}

// TestAutoMatchesTopDownOnCrawl checks Auto on web crawls, whose long
// tails hold a frontier of a few hundred vertices while the unexplored
// volume shrinks below alpha times the frontier's: the growth guard
// keeps every level top-down, so Auto scans exactly TopDownOnly's
// entries and its simulated time stays within 1% of TopDownOnly's (the
// bare alpha/beta pair took 6.72 ms against 4.46 ms on the 2^10 crawl
// in 1D).
func TestAutoMatchesTopDownOnCrawl(t *testing.T) {
	sess := NewSession()
	defer sess.Close()
	for _, nv := range []int64{1 << 10, 1 << 12} {
		g, err := NewWebCrawlGraph(nv, 5)
		if err != nil {
			t.Fatal(err)
		}
		src := g.Sources(1, 9)[0]
		for _, algo := range []Algorithm{OneDFlat, TwoDFlat} {
			res := map[Direction]*Result{}
			for _, dir := range []Direction{Auto, TopDownOnly} {
				r, err := sess.Search(g, src, Options{Algorithm: algo, Ranks: 4, Machine: "franklin", Direction: dir})
				if err != nil {
					t.Fatal(err)
				}
				res[dir] = r
			}
			auto, td := res[Auto], res[TopDownOnly]
			if auto.ScannedBottomUp != 0 || auto.ScannedTopDown != td.ScannedTopDown {
				t.Errorf("crawl %d %v: Auto scanned %d top-down + %d bottom-up, TopDownOnly %d",
					nv, algo, auto.ScannedTopDown, auto.ScannedBottomUp, td.ScannedTopDown)
			}
			if auto.SimTime > 1.01*td.SimTime {
				t.Errorf("crawl %d %v: Auto simulated %.3g s, over 1.01x TopDownOnly's %.3g s",
					nv, algo, auto.SimTime, td.SimTime)
			}
			t.Logf("crawl %d %v: Auto %.4g ms, TopDownOnly %.4g ms", nv, algo, auto.SimTime*1e3, td.SimTime*1e3)
		}
	}
}

// TestTopDownScannedAgreesAcrossCodes checks that every top-down code
// reports the adjacency entries it scans: the four TopDownOnly layouts
// and the two comparators each push over every out-edge of the reached
// set, so all six count the same ScannedTopDown and no bottom-up work.
// On a directed graph that count is not 2*TraversedEdges, so the test
// compares the codes with each other instead.
func TestTopDownScannedAgreesAcrossCodes(t *testing.T) {
	crawl, err := NewWebCrawlGraph(1<<10, 5)
	if err != nil {
		t.Fatal(err)
	}
	directed, err := NewDirectedGraph(6, [][2]int64{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {4, 0}, {4, 5}, {5, 3}})
	if err != nil {
		t.Fatal(err)
	}
	rmat := testGraph(t)
	cases := []struct {
		name string
		g    *Graph
		src  int64
	}{
		{"rmat", rmat, rmat.Sources(1, 3)[0]},
		{"crawl", crawl, crawl.Sources(1, 3)[0]},
		// Vertex 4 reaches every vertex, whose out-degrees sum to 7.
		{"directed", directed, 4},
	}
	sess := NewSession()
	defer sess.Close()
	for _, c := range cases {
		var want int64
		for i, algo := range []Algorithm{OneDFlat, OneDHybrid, TwoDFlat, TwoDHybrid, Reference, PBGL} {
			res, err := sess.Search(c.g, c.src, Options{Algorithm: algo, Ranks: 4, Direction: TopDownOnly})
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				want = res.ScannedTopDown
				t.Logf("%s: %d entries scanned, %d edges traversed", c.name, want, res.TraversedEdges)
			}
			if res.ScannedTopDown != want || res.ScannedBottomUp != 0 || want == 0 {
				t.Errorf("%s %v: scanned %d top-down + %d bottom-up, want %d + 0",
					c.name, algo, res.ScannedTopDown, res.ScannedBottomUp, want)
			}
		}
	}
}
