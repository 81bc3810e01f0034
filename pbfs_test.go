package pbfs

import (
	"testing"

	"repro/internal/perfmodel"
)

func testGraph(t *testing.T) *Graph {
	t.Helper()
	g, err := NewRMATGraph(10, 8, 0xfeed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestAlgorithmEnumAligned(t *testing.T) {
	// Projection casts Algorithm to perfmodel.Algo; the enums must agree.
	pairs := []struct {
		pub Algorithm
		in  perfmodel.Algo
	}{
		{OneDFlat, perfmodel.OneDFlat}, {OneDHybrid, perfmodel.OneDHybrid},
		{TwoDFlat, perfmodel.TwoDFlat}, {TwoDHybrid, perfmodel.TwoDHybrid},
		{Reference, perfmodel.Reference}, {PBGL, perfmodel.PBGL},
	}
	for _, p := range pairs {
		if int(p.pub) != int(p.in) {
			t.Errorf("%v = %d but perfmodel %v = %d", p.pub, p.pub, p.in, p.in)
		}
		if p.pub.String() != p.in.String() {
			t.Errorf("name mismatch: %q vs %q", p.pub, p.in)
		}
	}
}

func TestGraphAccessors(t *testing.T) {
	g := testGraph(t)
	if g.NumVerts() != 1024 {
		t.Errorf("NumVerts = %d", g.NumVerts())
	}
	if g.NumEdges() <= 0 {
		t.Errorf("NumEdges = %d", g.NumEdges())
	}
	srcs := g.Sources(4, 1)
	if len(srcs) != 4 {
		t.Fatalf("Sources returned %d", len(srcs))
	}
	if g.Degree(srcs[0]) <= 0 {
		t.Error("sampled source has no neighbors")
	}
	if len(g.Neighbors(srcs[0])) == 0 {
		t.Error("Neighbors empty for sampled source")
	}
}

func TestBFSAllAlgorithmsAgree(t *testing.T) {
	g := testGraph(t)
	src := g.Sources(1, 2)[0]
	want := g.SerialBFS(src)
	for _, algo := range []Algorithm{OneDFlat, OneDHybrid, TwoDFlat, TwoDHybrid, Reference, PBGL} {
		ranks := 9
		if algo == OneDFlat || algo == Reference || algo == PBGL {
			ranks = 6
		}
		res, err := g.BFS(src, Options{Algorithm: algo, Ranks: ranks, Machine: "franklin"})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if err := g.Validate(res); err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		for v := range res.Dist {
			if res.Dist[v] != want.Dist[v] {
				t.Fatalf("%v: dist[%d] = %d, want %d", algo, v, res.Dist[v], want.Dist[v])
			}
		}
		if res.TraversedEdges != want.TraversedEdges {
			t.Errorf("%v: traversed %d, want %d", algo, res.TraversedEdges, want.TraversedEdges)
		}
		if res.SimTime <= 0 || res.TEPS() <= 0 {
			t.Errorf("%v: no simulated time", algo)
		}
	}
}

func TestBFSWithoutMachine(t *testing.T) {
	g := testGraph(t)
	src := g.Sources(1, 3)[0]
	res, err := g.BFS(src, Options{Algorithm: TwoDFlat, Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.SimTime != 0 {
		t.Errorf("SimTime without machine = %v", res.SimTime)
	}
	if err := g.Validate(res); err != nil {
		t.Error(err)
	}
}

func TestBFSOptionErrors(t *testing.T) {
	g := testGraph(t)
	src := g.Sources(1, 4)[0]
	if _, err := g.BFS(-1, Options{}); err == nil {
		t.Error("negative source accepted")
	}
	if _, err := g.BFS(src, Options{Machine: "cray-3"}); err == nil {
		t.Error("unknown machine accepted")
	}
	if _, err := g.BFS(src, Options{Algorithm: TwoDFlat, Ranks: 7, GridRows: 2}); err == nil {
		t.Error("ranks not factorable into the requested grid accepted")
	}
	// A non-square rank count is no longer an error: it runs on its
	// closest-square factorization (1x7 here).
	if res, err := g.BFS(src, Options{Algorithm: TwoDFlat, Ranks: 7}); err != nil {
		t.Errorf("prime 2D rank count rejected: %v", err)
	} else if err := g.Validate(res); err != nil {
		t.Error(err)
	}
}

func TestNewGraphFromEdges(t *testing.T) {
	g, err := NewGraphFromEdges(4, [][2]int64{{0, 1}, {1, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	res := g.SerialBFS(0)
	if res.Dist[3] != 3 {
		t.Errorf("dist[3] = %d", res.Dist[3])
	}
	if _, err := NewGraphFromEdges(2, [][2]int64{{0, 5}}); err == nil {
		t.Error("out-of-range edge accepted")
	}
}

func TestWebCrawlGraph(t *testing.T) {
	g, err := NewWebCrawlGraph(1<<12, 7)
	if err != nil {
		t.Fatal(err)
	}
	res := g.SerialBFS(0)
	if res.Levels != 139 {
		t.Errorf("crawl depth = %d, want 139", res.Levels)
	}
}

func TestProjections(t *testing.T) {
	p, err := ProjectRMAT("hopper", 40000, TwoDHybrid, 32, 16)
	if err != nil {
		t.Fatal(err)
	}
	if p.GTEPS < 10 || p.GTEPS > 35 {
		t.Errorf("projected 40k-core GTEPS = %.1f, want near the paper's 17.8", p.GTEPS)
	}
	if p.Phases["expand"] <= 0 || p.Phases["fold"] <= 0 {
		t.Error("projection lacks phase decomposition")
	}
	if _, err := ProjectRMAT("nope", 64, OneDFlat, 20, 16); err == nil {
		t.Error("unknown machine accepted")
	}
	if _, err := ProjectWebCrawl("hopper", 4000, TwoDFlat); err != nil {
		t.Error(err)
	}
}

// TestProjectRejectsBadInput: inputs the model cannot price are
// errors, not panics inside perfmodel.Predict.
func TestProjectRejectsBadInput(t *testing.T) {
	for _, tc := range []struct {
		name              string
		algo              Algorithm
		scale, edgeFactor int
	}{
		{"edge factor 0", TwoDFlat, 20, 0},
		{"scale -1", TwoDFlat, -1, 16},
		{"scale 64", TwoDFlat, 64, 16},
		{"scale 62 wraps the edge count", TwoDFlat, 62, 16},
		{"algorithm 99", Algorithm(99), 20, 16},
		{"algorithm -1", Algorithm(-1), 20, 16},
		// 2^62 edges wrap the model's 2·M slot count.
		{"2D flat, 2^62 edges", TwoDFlat, 62, 1},
		{"1D flat, 2^62 edges", OneDFlat, 62, 1},
		{"PBGL, 2^59 edges", PBGL, 58, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ProjectRMAT("hopper", 1024, tc.algo, tc.scale, tc.edgeFactor); err == nil {
				t.Error("ProjectRMAT accepted the input")
			}
		})
	}
	for _, algo := range []Algorithm{Algorithm(99), Algorithm(-1)} {
		if _, err := ProjectWebCrawl("hopper", 1024, algo); err == nil {
			t.Errorf("ProjectWebCrawl accepted algorithm %d", int(algo))
		}
	}
}
