package graph

import (
	"slices"
	"strconv"
	"strings"
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
	wantAdj := map[int64][]uint32{
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

// TestBuildCSRDedupRightSized: the deduplicated adjacency array must not
// keep the capacity of the pre-dedup one, since the CSR stays live for
// as long as the graph does (1D locals alias it). Self-loops and
// duplicates here leave slack to drop; a duplicate-free graph has none.
func TestBuildCSRDedupRightSized(t *testing.T) {
	messy := &EdgeList{NumVerts: 40}
	for k := int64(0); k < 300; k++ {
		messy.Edges = append(messy.Edges, Edge{U: k * 7 % 31, V: k * 13 % 31})
	}
	for name, el := range map[string]*EdgeList{"messy": messy.Symmetrize(), "clean": smallEdgeList()} {
		g, err := BuildCSR(el, true)
		if err != nil {
			t.Fatal(err)
		}
		if cap(g.Adj) != len(g.Adj) {
			t.Errorf("%s: cap(Adj) %d != len %d after dedup", name, cap(g.Adj), len(g.Adj))
		}
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
				count[Edge{v, int64(u)}]--
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

// FuzzBuildCSR builds a CSR from fuzzed edge lists, self-loops,
// duplicates and ids at n-1 included, under both dedup modes. Every
// row must be sorted and hold exactly the edges a map-based oracle
// gives it, and transposing twice must give the CSR back. A vertex
// count outside [0, MaxVerts] must be refused by name before anything
// is allocated (at these sizes XAdj alone would take over 32 GiB); an
// accepted one is cut to below 256 before the build, so no input
// allocates more than a small graph. Each byte pair of data is one
// edge (u, v), taken mod n.
func FuzzBuildCSR(f *testing.F) {
	f.Add(int64(6), false, []byte{0, 1, 1, 0, 2, 5, 5, 2, 3, 3, 0, 1})
	f.Add(int64(6), true, []byte{0, 1, 1, 0, 2, 5, 5, 2, 3, 3, 0, 1})
	f.Add(int64(1), true, []byte{0, 0, 0, 0})
	f.Add(int64(0), false, []byte{})
	f.Add(int64(MaxVerts), true, []byte{255, 254, 254, 255})
	f.Add(int64(MaxVerts+1), false, []byte{1, 2})
	f.Add(int64(1<<40), true, []byte{})
	f.Add(int64(-3), true, []byte{})
	f.Fuzz(func(t *testing.T, n int64, dedup bool, data []byte) {
		if n < 0 || n > MaxVerts {
			_, err := BuildCSR(&EdgeList{NumVerts: n}, dedup)
			if err == nil || !strings.Contains(err.Error(), strconv.FormatInt(n, 10)) {
				t.Fatalf("n=%d: error %v does not refuse it by name", n, err)
			}
			return
		}
		if err := CheckVerts(n); err != nil {
			t.Fatalf("n=%d refused: %v", n, err)
		}
		n %= 256
		el := &EdgeList{NumVerts: n}
		want := make(map[int64][]uint32)
		for k := 0; n > 0 && k+1 < len(data); k += 2 {
			u, v := int64(data[k])%n, int64(data[k+1])%n
			el.Edges = append(el.Edges, Edge{u, v})
			if dedup && (u == v || slices.Contains(want[u], uint32(v))) {
				continue
			}
			want[u] = append(want[u], uint32(v))
		}
		g, err := BuildCSR(el, dedup)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if g.NumVerts != n || int64(len(g.XAdj)) != n+1 || g.XAdj[0] != 0 || g.XAdj[n] != g.NumEdges() {
			t.Fatalf("n=%d: %d vertices, XAdj len %d, [0]=%d, [n]=%d for %d entries",
				n, g.NumVerts, len(g.XAdj), g.XAdj[0], g.XAdj[len(g.XAdj)-1], g.NumEdges())
		}
		for v := int64(0); v < n; v++ {
			row := g.Neighbors(v)
			if !slices.IsSorted(row) {
				t.Fatalf("row %d not sorted: %v", v, row)
			}
			slices.Sort(want[v])
			if !slices.Equal(row, want[v]) {
				t.Fatalf("row %d = %v, want %v (dedup %v)", v, row, want[v], dedup)
			}
		}
		back := g.Transpose().Transpose()
		if back.NumVerts != n || !slices.Equal(back.XAdj, g.XAdj) || !slices.Equal(back.Adj, g.Adj) {
			t.Fatalf("transposing twice changed the CSR: %v %v, want %v %v", back.XAdj, back.Adj, g.XAdj, g.Adj)
		}
	})
}
