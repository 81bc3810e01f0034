package bfs1d

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/rmat"
	"repro/internal/serial"
)

func TestSingleRankWorld(t *testing.T) {
	gp := rmat.Graph500(9, 8, 0x91)
	el, err := gp.GenerateUndirected()
	if err != nil {
		t.Fatal(err)
	}
	out := runAndValidate(t, el, 1, goodSource(t, el), defaultOptions())
	if out.TraversedEdges == 0 {
		t.Fatal("no work done on single rank")
	}
}

func TestTraceMatchesDistances(t *testing.T) {
	gp := rmat.Graph500(10, 8, 0x93)
	el, err := gp.GenerateUndirected()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := graph.BuildCSR(el, true)
	if err != nil {
		t.Fatal(err)
	}
	src := goodSource(t, el)
	dg, err := Distribute(el, 5)
	if err != nil {
		t.Fatal(err)
	}
	w := cluster.NewWorld(5, cluster.ZeroCost{})
	opt := defaultOptions()
	opt.Trace = true
	out := Run(w, dg, src, opt)

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

func TestMoreThreadsThanWork(t *testing.T) {
	// A tiny graph with a wide threading width must still be correct.
	el := &graph.EdgeList{NumVerts: 6, Edges: []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 5},
	}}
	runAndValidate(t, el.Symmetrize(), 2, 0, Options{Threads: 16, LocalShortcut: true})
}

func TestDistributeRejectsBadInput(t *testing.T) {
	el := &graph.EdgeList{NumVerts: 4, Edges: []graph.Edge{{U: -1, V: 0}}}
	if _, err := Distribute(el, 2); err == nil {
		t.Error("negative vertex accepted")
	}
	small := &graph.EdgeList{NumVerts: 2}
	if _, err := Distribute(small, 5); err == nil {
		t.Error("more ranks than vertices accepted")
	}
}

func TestCommVolumeWithoutShortcutHigher(t *testing.T) {
	// Routing local discoveries through the exchange must strictly
	// increase the words moved — the quantity the optimization exists to
	// cut.
	gp := rmat.Graph500(11, 16, 0x95)
	el, err := gp.GenerateUndirected()
	if err != nil {
		t.Fatal(err)
	}
	src := goodSource(t, el)
	volume := func(shortcut bool) int64 {
		dg, err := Distribute(el, 4)
		if err != nil {
			t.Fatal(err)
		}
		w := cluster.NewWorld(4, cluster.ZeroCost{})
		Run(w, dg, src, Options{Threads: 1, LocalShortcut: shortcut})
		return w.Stats().TotalSent
	}
	with, without := volume(true), volume(false)
	if with >= without {
		t.Errorf("shortcut volume %d not below no-shortcut volume %d", with, without)
	}
	// With 4 ranks, ~1/4 of edges are local: expect roughly that saving.
	if float64(with) > 0.9*float64(without) {
		t.Errorf("shortcut saved only %d of %d words", without-with, without)
	}
}
