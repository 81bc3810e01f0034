package graph

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/prng"
)

func smallEdgeList() *EdgeList {
	return &EdgeList{
		NumVerts: 6,
		Edges: []Edge{
			{0, 1}, {0, 3}, {1, 0}, {1, 2}, {2, 4}, {2, 5},
			{3, 0}, {3, 4}, {3, 5}, {4, 2}, {5, 2},
		},
	}
}

func TestBuildCSRBasic(t *testing.T) {
	g, err := BuildCSR(smallEdgeList(), false)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVerts != 6 {
		t.Fatalf("NumVerts = %d", g.NumVerts)
	}
	if g.NumEdges() != 11 {
		t.Fatalf("NumEdges = %d", g.NumEdges())
	}
	wantAdj := map[int64][]int64{
		0: {1, 3}, 1: {0, 2}, 2: {4, 5}, 3: {0, 4, 5}, 4: {2}, 5: {2},
	}
	for v, want := range wantAdj {
		got := g.Neighbors(v)
		if len(got) != len(want) {
			t.Fatalf("vertex %d: neighbors %v, want %v", v, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("vertex %d: neighbors %v, want %v", v, got, want)
			}
		}
	}
}

func TestBuildCSRRejectsOutOfRange(t *testing.T) {
	el := &EdgeList{NumVerts: 3, Edges: []Edge{{0, 5}}}
	if _, err := BuildCSR(el, false); err == nil {
		t.Error("expected error for out-of-range edge")
	}
	el = &EdgeList{NumVerts: 3, Edges: []Edge{{-1, 0}}}
	if _, err := BuildCSR(el, false); err == nil {
		t.Error("expected error for negative vertex")
	}
}

func TestBuildCSRDedup(t *testing.T) {
	el := &EdgeList{
		NumVerts: 4,
		Edges:    []Edge{{0, 1}, {0, 1}, {0, 0}, {1, 2}, {1, 2}, {1, 2}, {3, 3}},
	}
	g, err := BuildCSR(el, true)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges after dedup = %d, want 2", g.NumEdges())
	}
	if g.Degree(0) != 1 || g.Degree(1) != 1 || g.Degree(3) != 0 {
		t.Errorf("degrees after dedup: %d %d %d", g.Degree(0), g.Degree(1), g.Degree(3))
	}
}

func TestSymmetrize(t *testing.T) {
	el := &EdgeList{NumVerts: 3, Edges: []Edge{{0, 1}, {1, 2}, {2, 2}}}
	sym := el.Symmetrize()
	// 2 non-loop edges doubled + 1 self-loop kept once = 5
	if len(sym.Edges) != 5 {
		t.Fatalf("symmetrized edge count = %d, want 5", len(sym.Edges))
	}
	g, err := BuildCSR(sym, false)
	if err != nil {
		t.Fatal(err)
	}
	// Undirected degree symmetry: in-degree equals out-degree per vertex.
	in := make([]int64, 3)
	for v := int64(0); v < 3; v++ {
		for _, u := range g.Neighbors(v) {
			in[u]++
		}
	}
	for v := int64(0); v < 3; v++ {
		if in[v] != g.Degree(v) {
			t.Errorf("vertex %d: in %d != out %d", v, in[v], g.Degree(v))
		}
	}
}

// Property: CSR construction preserves the multiset of edges.
func TestBuildCSRPreservesEdges(t *testing.T) {
	check := func(seed uint64) bool {
		g := prng.New(seed)
		n := int64(g.Intn(50) + 2)
		m := g.Intn(200)
		el := &EdgeList{NumVerts: n}
		count := make(map[Edge]int)
		for i := 0; i < m; i++ {
			e := Edge{g.Int64n(n), g.Int64n(n)}
			el.Edges = append(el.Edges, e)
			count[e]++
		}
		csr, err := BuildCSR(el, false)
		if err != nil {
			return false
		}
		for v := int64(0); v < n; v++ {
			for _, u := range csr.Neighbors(v) {
				count[Edge{v, u}]--
			}
		}
		for _, c := range count {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: adjacency blocks are sorted.
func TestBuildCSRSorted(t *testing.T) {
	check := func(seed uint64) bool {
		g := prng.New(seed)
		n := int64(g.Intn(40) + 2)
		el := &EdgeList{NumVerts: n}
		for i := 0; i < 300; i++ {
			el.Edges = append(el.Edges, Edge{g.Int64n(n), g.Int64n(n)})
		}
		csr, err := BuildCSR(el, false)
		if err != nil {
			return false
		}
		for v := int64(0); v < n; v++ {
			adj := csr.Neighbors(v)
			for i := 1; i < len(adj); i++ {
				if adj[i-1] > adj[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: the transpose of a deduplicated CSR is the deduplicated CSR
// of the reversed edge list.
func TestTransposeMatchesReversedBuild(t *testing.T) {
	check := func(seed uint64) bool {
		g := prng.New(seed)
		n := int64(g.Intn(40) + 1)
		el, rev := &EdgeList{NumVerts: n}, &EdgeList{NumVerts: n}
		for i := g.Intn(300); i > 0; i-- {
			e := Edge{g.Int64n(n), g.Int64n(n)}
			el.Edges = append(el.Edges, e)
			rev.Edges = append(rev.Edges, Edge{e.V, e.U})
		}
		csr, err := BuildCSR(el, true)
		if err != nil {
			return false
		}
		want, err := BuildCSR(rev, true)
		if err != nil {
			return false
		}
		got := csr.Transpose()
		return got.NumVerts == n && slices.Equal(got.XAdj, want.XAdj) && slices.Equal(got.Adj, want.Adj)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestStats(t *testing.T) {
	g, err := BuildCSR(smallEdgeList(), false)
	if err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	if st.Min != 1 || st.Max != 3 || st.Isolated != 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.Mean < 1.8 || st.Mean > 1.9 {
		t.Errorf("mean = %v, want 11/6", st.Mean)
	}
}

func TestRelabelEdges(t *testing.T) {
	el := &EdgeList{NumVerts: 3, Edges: []Edge{{0, 1}, {1, 2}}}
	perm := []int64{2, 0, 1}
	if err := RelabelEdges(el, perm); err != nil {
		t.Fatal(err)
	}
	if el.Edges[0] != (Edge{2, 0}) || el.Edges[1] != (Edge{0, 1}) {
		t.Errorf("relabeled edges = %v", el.Edges)
	}
	if err := RelabelEdges(el, []int64{0}); err == nil {
		t.Error("expected length-mismatch error")
	}
}

func TestConnectedComponents(t *testing.T) {
	// Two triangles and an isolated vertex.
	el := &EdgeList{
		NumVerts: 7,
		Edges:    []Edge{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}},
	}
	g, err := BuildCSR(el.Symmetrize(), false)
	if err != nil {
		t.Fatal(err)
	}
	comp, count := ConnectedComponents(g)
	if count != 3 {
		t.Fatalf("component count = %d, want 3", count)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Error("first triangle split across components")
	}
	if comp[3] != comp[4] || comp[4] != comp[5] {
		t.Error("second triangle split across components")
	}
	if comp[0] == comp[3] || comp[0] == comp[6] || comp[3] == comp[6] {
		t.Error("distinct components merged")
	}
	id, size := LargestComponent(comp, count)
	if size != 3 {
		t.Errorf("largest component size = %d", size)
	}
	if id != comp[0] && id != comp[3] {
		t.Errorf("largest component id = %d", id)
	}
}

func TestSampleSources(t *testing.T) {
	el := &EdgeList{
		NumVerts: 10,
		Edges:    []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}},
	}
	g, err := BuildCSR(el.Symmetrize(), false)
	if err != nil {
		t.Fatal(err)
	}
	comp, count := ConnectedComponents(g)
	id, _ := LargestComponent(comp, count)
	rng := prng.New(1)
	srcs := SampleSources(g, comp, id, 3, rng.Int64n)
	if len(srcs) != 3 {
		t.Fatalf("got %d sources, want 3", len(srcs))
	}
	seen := map[int64]bool{}
	for _, s := range srcs {
		if s < 0 || s > 4 {
			t.Errorf("source %d outside the cycle component", s)
		}
		if seen[s] {
			t.Errorf("duplicate source %d", s)
		}
		seen[s] = true
	}
	// Requesting more sources than candidates returns all candidates.
	all := SampleSources(g, comp, id, 100, rng.Int64n)
	if len(all) != 5 {
		t.Errorf("got %d sources, want all 5", len(all))
	}
}
