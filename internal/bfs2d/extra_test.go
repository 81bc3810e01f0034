package bfs2d

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/rmat"
	"repro/internal/serial"
	"repro/internal/webgen"
)

func TestSingleRankGrid(t *testing.T) {
	// pr = pc = 1: the whole matrix in one block; collectives degenerate
	// to self-exchanges. This is the smallest closed case of Algorithm 3.
	gp := rmat.Graph500(9, 8, 0x81)
	el, err := gp.GenerateUndirected()
	if err != nil {
		t.Fatal(err)
	}
	out := runAndValidate(t, el, 1, goodSource(t, el), defaultOptions())
	if out.TraversedEdges == 0 {
		t.Fatal("no work done on single-rank grid")
	}
}

func TestTraceMatchesDistances(t *testing.T) {
	gp := rmat.Graph500(10, 8, 0x83)
	el, err := gp.GenerateUndirected()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := graph.BuildCSR(el, true)
	if err != nil {
		t.Fatal(err)
	}
	src := goodSource(t, el)
	dg, err := Distribute(el, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := cluster.NewWorld(4, cluster.ZeroCost{})
	grid := cluster.NewGrid(w, 2, 2)
	opt := defaultOptions()
	opt.Trace = true
	out, err := Run(w, grid, dg, src, opt)
	if err != nil {
		t.Fatal(err)
	}

	// The trace must equal the per-level histogram of serial distances.
	sref := serial.BFS(ref, src)
	hist := make([]int64, out.Levels+1)
	for _, d := range sref.Dist {
		if d > 0 {
			hist[d]++
		}
	}
	if int64(len(out.LevelFrontier)) != out.Levels {
		t.Fatalf("trace length %d != levels %d", len(out.LevelFrontier), out.Levels)
	}
	for l, c := range out.LevelFrontier {
		if c != hist[l+1] {
			t.Errorf("level %d: trace %d, histogram %d", l+1, c, hist[l+1])
		}
	}
}

func TestHighDiameterCrawl2D(t *testing.T) {
	// The Figure 11 regime end-to-end at test scale: the 2D algorithm
	// must sustain ~140 level-synchronous iterations correctly.
	p := webgen.UKUnionLike(1<<12, 0x85)
	el, err := p.GenerateUndirected()
	if err != nil {
		t.Fatal(err)
	}
	out := runAndValidate(t, el, 2, 0, defaultOptions()) // vertex 0 opens layer 0
	if out.Levels != int64(p.Depth-1) {
		t.Errorf("crawl traversed in %d levels, want %d", out.Levels, p.Depth-1)
	}
}

func TestDistributeRejectsBadInput(t *testing.T) {
	el := &graph.EdgeList{NumVerts: 10, Edges: []graph.Edge{{U: 0, V: 99}}}
	if _, err := Distribute(el, 2, 2, 1); err == nil {
		t.Error("out-of-range edge accepted")
	}
	small := &graph.EdgeList{NumVerts: 3}
	if _, err := Distribute(small, 2, 2, 1); err == nil {
		t.Error("more ranks than vertices accepted")
	}
}
