package baseline

import (
	"testing"

	"repro/internal/bfs1d"
	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/netmodel"
	"repro/internal/rmat"
	"repro/internal/serial"
)

func testGraph(t *testing.T, scale, ef int, seed uint64) (*graph.EdgeList, *graph.CSR, int64) {
	t.Helper()
	el, err := rmat.Graph500(scale, ef, seed).GenerateUndirected()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := graph.BuildCSR(el, true)
	if err != nil {
		t.Fatal(err)
	}
	var src, deg int64
	for v := int64(0); v < ref.NumVerts; v++ {
		if d := ref.Degree(v); d > deg {
			src, deg = v, d
		}
	}
	return el, ref, src
}

func TestReferenceCorrect(t *testing.T) {
	el, ref, src := testGraph(t, 10, 8, 67)
	dg, err := bfs1d.Distribute(el, 6)
	if err != nil {
		t.Fatal(err)
	}
	w := cluster.NewWorld(6, cluster.ZeroCost{})
	out := Run(w, dg, src, nil, Reference)
	sref := serial.BFS(ref, src)
	res := &serial.Result{Source: src, Dist: out.Dist, Parent: out.Parent}
	if err := serial.Validate(ref, res, sref); err != nil {
		t.Fatal(err)
	}
}

func TestPBGLCorrect(t *testing.T) {
	el, ref, src := testGraph(t, 10, 8, 71)
	dg, err := bfs1d.Distribute(el, 4)
	if err != nil {
		t.Fatal(err)
	}
	w := cluster.NewWorld(4, cluster.ZeroCost{})
	out := Run(w, dg, src, nil, PBGL)
	sref := serial.BFS(ref, src)
	res := &serial.Result{Source: src, Dist: out.Dist, Parent: out.Parent}
	if err := serial.Validate(ref, res, sref); err != nil {
		t.Fatal(err)
	}
}

// simTime runs fn on a fresh world and returns the simulated completion
// time.
func simTime(p int, m *netmodel.Machine, fn func(w *cluster.World)) float64 {
	w := cluster.NewWorld(p, m)
	fn(w)
	return w.Stats().MaxClock
}

func TestReferenceSlowerThanTuned(t *testing.T) {
	el, _, src := testGraph(t, 12, 16, 73)
	m := netmodel.Franklin()
	const p = 8
	dg, err := bfs1d.Distribute(el, p)
	if err != nil {
		t.Fatal(err)
	}
	tuned := simTime(p, m, func(w *cluster.World) {
		opt := bfs1d.Options{Threads: 1, LocalShortcut: true, DedupSends: true}
		opt.Price = m
		bfs1d.Run(w, dg, src, opt)
	})
	ref := simTime(p, m, func(w *cluster.World) {
		Run(w, dg, src, m, Reference)
	})
	ratio := ref / tuned
	// The paper measures 2.72-4.13x on Franklin; allow a broad band
	// around it for the emulated scale.
	if ratio < 1.5 || ratio > 8 {
		t.Errorf("reference/tuned = %.2f, want within [1.5, 8]", ratio)
	}
}

func TestPBGLMuchSlowerThanReference(t *testing.T) {
	el, _, src := testGraph(t, 12, 16, 79)
	m := netmodel.Carver()
	const p = 8
	dg, err := bfs1d.Distribute(el, p)
	if err != nil {
		t.Fatal(err)
	}
	refT := simTime(p, m, func(w *cluster.World) {
		Run(w, dg, src, m, Reference)
	})
	pbglT := simTime(p, m, func(w *cluster.World) {
		Run(w, dg, src, m, PBGL)
	})
	if pbglT <= refT {
		t.Errorf("PBGL (%v) not slower than reference (%v)", pbglT, refT)
	}
}
