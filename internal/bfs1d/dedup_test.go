package bfs1d

import (
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/levels"
	"repro/internal/prng"
	"repro/internal/rmat"
	"repro/internal/serial"
)

// runWords runs a 1D BFS and returns the output plus total words sent
// through the collectives.
func runWords(t *testing.T, el *graph.EdgeList, p int, src int64, opt Options) (*levels.Output, int64) {
	t.Helper()
	dg, err := Distribute(el, p)
	if err != nil {
		t.Fatal(err)
	}
	w := cluster.NewWorld(p, cluster.ZeroCost{})
	out := Run(w, dg, src, opt)
	st := w.Stats()
	return out, st.TotalSent
}

// TestDedupSendsReducesVolume: on a dense R-MAT instance many frontier
// vertices discover the same remote target in the same level; the bitmap
// filter must remove those duplicates from the wire without changing the
// answer.
func TestDedupSendsReducesVolume(t *testing.T) {
	el, err := rmat.Graph500(10, 32, 0x5d).GenerateUndirected()
	if err != nil {
		t.Fatal(err)
	}
	src := goodSource(t, el)
	plain := Options{Threads: 1, LocalShortcut: true}
	dedup := plain
	dedup.DedupSends = true
	outPlain, sentPlain := runWords(t, el, 8, src, plain)
	outDedup, sentDedup := runWords(t, el, 8, src, dedup)
	if sentDedup >= sentPlain {
		t.Errorf("dedup sent %d words, plain %d: no reduction", sentDedup, sentPlain)
	}
	if outPlain.Levels != outDedup.Levels {
		t.Errorf("levels differ: %d vs %d", outPlain.Levels, outDedup.Levels)
	}
	for v := range outPlain.Dist {
		if outPlain.Dist[v] != outDedup.Dist[v] {
			t.Fatalf("dist[%d] differs: %d vs %d", v, outPlain.Dist[v], outDedup.Dist[v])
		}
	}
}

// TestHybridBitIdenticalToFlat: the hybrid expansion merges thread-local
// stacks in frontier order, so Dist AND Parent must match the flat
// algorithm exactly — not merely be another valid BFS tree.
func TestHybridBitIdenticalToFlat(t *testing.T) {
	el, err := rmat.Graph500(11, 16, 0x5e).GenerateUndirected()
	if err != nil {
		t.Fatal(err)
	}
	src := goodSource(t, el)
	for _, shortcut := range []bool{true, false} {
		for _, dedupOn := range []bool{true, false} {
			base := Options{Threads: 1, LocalShortcut: shortcut, DedupSends: dedupOn}
			flat, flatSent := runWords(t, el, 6, src, base)
			for _, threads := range []int{2, 3, 8} {
				opt := base
				opt.Threads = threads
				hyb, hybSent := runWords(t, el, 6, src, opt)
				if hybSent != flatSent {
					t.Errorf("shortcut=%v dedup=%v threads=%d: sent %d words, flat sent %d",
						shortcut, dedupOn, threads, hybSent, flatSent)
				}
				for v := range flat.Dist {
					if flat.Dist[v] != hyb.Dist[v] || flat.Parent[v] != hyb.Parent[v] {
						t.Fatalf("shortcut=%v dedup=%v threads=%d: vertex %d (dist,parent)=(%d,%d) vs flat (%d,%d)",
							shortcut, dedupOn, threads, v, hyb.Dist[v], hyb.Parent[v], flat.Dist[v], flat.Parent[v])
					}
				}
			}
		}
	}
}

// TestDedupPropertyRandom cross-checks dedup and threading against the
// serial oracle on random duplicate-heavy graphs: small vertex counts
// with many edges maximize same-level duplicate discoveries.
func TestDedupPropertyRandom(t *testing.T) {
	check := func(seed uint64) bool {
		rng := prng.New(seed)
		n := int64(rng.Intn(50) + 4)
		el := &graph.EdgeList{NumVerts: n}
		m := rng.Intn(600) // up to ~12x denser than vertices: duplicate-heavy
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
		opt := Options{
			Threads:       rng.Intn(4) + 1,
			LocalShortcut: rng.Intn(2) == 0,
			DedupSends:    rng.Intn(2) == 0,
		}
		w := cluster.NewWorld(p, cluster.ZeroCost{})
		out := Run(w, dg, source, opt)
		sref := serial.BFS(ref, source)
		res := &serial.Result{Source: source, Dist: out.Dist, Parent: out.Parent}
		if serial.Validate(ref, res, sref) != nil {
			return false
		}
		return out.TraversedEdges == sref.EdgesTraversed(ref)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
