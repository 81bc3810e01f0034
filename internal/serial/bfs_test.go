package serial

import (
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/prng"
	"repro/internal/rmat"
)

func lineGraph(n int64) *graph.CSR {
	el := &graph.EdgeList{NumVerts: n}
	for i := int64(0); i < n-1; i++ {
		el.Edges = append(el.Edges, graph.Edge{U: i, V: i + 1})
	}
	g, err := graph.BuildCSR(el.Symmetrize(), false)
	if err != nil {
		panic(err)
	}
	return g
}

func TestBFSLine(t *testing.T) {
	g := lineGraph(10)
	r := BFS(g, 0)
	for v := int64(0); v < 10; v++ {
		if r.Dist[v] != v {
			t.Errorf("dist[%d] = %d, want %d", v, r.Dist[v], v)
		}
	}
	if r.MaxLevel() != 9 {
		t.Errorf("MaxLevel = %d", r.MaxLevel())
	}
	if err := Validate(g, r, bfsQueue(g, 0)); err != nil {
		t.Error(err)
	}
}

func TestBFSDisconnected(t *testing.T) {
	el := &graph.EdgeList{NumVerts: 5, Edges: []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}}}
	g, err := graph.BuildCSR(el.Symmetrize(), false)
	if err != nil {
		t.Fatal(err)
	}
	r := BFS(g, 0)
	if r.Dist[2] != Unreached || r.Dist[3] != Unreached || r.Dist[4] != Unreached {
		t.Errorf("unreachable vertices have distances: %v", r.Dist)
	}
	if r.Dist[0] != 0 || r.Dist[1] != 1 {
		t.Errorf("reachable vertices have distances: %v", r.Dist)
	}
	if err := Validate(g, r, nil); err != nil {
		t.Error(err)
	}
}

func TestTwoOraclesAgreeOnRMAT(t *testing.T) {
	p := rmat.Graph500(10, 8, 42)
	el, err := p.GenerateUndirected()
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.BuildCSR(el, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []int64{0, 1, 100, 1023} {
		a, b := BFS(g, src), bfsQueue(g, src)
		for v := int64(0); v < g.NumVerts; v++ {
			if a.Dist[v] != b.Dist[v] {
				t.Fatalf("src %d vertex %d: stack %d != queue %d", src, v, a.Dist[v], b.Dist[v])
			}
		}
		if err := Validate(g, a, b); err != nil {
			t.Errorf("src %d: %v", src, err)
		}
	}
}

func TestEdgesTraversed(t *testing.T) {
	g := lineGraph(4) // symmetrized path: degrees 1,2,2,1 -> sum 6
	r := BFS(g, 0)
	if m := r.EdgesTraversed(g); m != 6 {
		t.Errorf("EdgesTraversed = %d, want 6", m)
	}
}

// Property: BFS distances satisfy the triangle property over edges
// (|d(u)-d(v)| <= 1 for reached endpoints) on random graphs.
func TestBFSPropertyRandom(t *testing.T) {
	check := func(seed uint64) bool {
		rng := prng.New(seed)
		n := int64(rng.Intn(60) + 2)
		el := &graph.EdgeList{NumVerts: n}
		m := rng.Intn(200)
		for i := 0; i < m; i++ {
			el.Edges = append(el.Edges, graph.Edge{U: rng.Int64n(n), V: rng.Int64n(n)})
		}
		g, err := graph.BuildCSR(el.Symmetrize(), false)
		if err != nil {
			return false
		}
		src := rng.Int64n(n)
		r := BFS(g, src)
		return Validate(g, r, bfsQueue(g, src)) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := lineGraph(8)
	cases := []struct {
		name    string
		corrupt func(r *Result)
	}{
		{"wrong source distance", func(r *Result) { r.Dist[r.Source] = 5 }},
		{"level gap on tree edge", func(r *Result) { r.Dist[4] = 9 }},
		{"fake parent", func(r *Result) { r.Parent[5] = 2 }},
		{"reachability disagreement", func(r *Result) { r.Parent[3] = Unreached }},
		{"second level-0 vertex", func(r *Result) { r.Dist[7] = 0; r.Parent[7] = 7 }},
	}
	for _, tc := range cases {
		r := BFS(g, 0)
		tc.corrupt(r)
		if err := Validate(g, r, nil); err == nil {
			t.Errorf("%s: corruption not detected", tc.name)
		}
	}
}

// bfsQueue is the textbook FIFO-queue BFS. It produces identical distances
// to BFS (parents may differ within a level); it exists as an independent
// second oracle so the two-stack variant is itself cross-checked.
func bfsQueue(g *graph.CSR, source int64) *Result {
	n := g.NumVerts
	dist := make([]int64, n)
	parent := make([]int64, n)
	for i := range dist {
		dist[i] = Unreached
		parent[i] = Unreached
	}
	dist[source] = 0
	parent[source] = source
	queue := make([]int64, 0, 1024)
	queue = append(queue, source)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.Neighbors(u) {
			if dist[v] == Unreached {
				dist[v] = dist[u] + 1
				parent[v] = u
				queue = append(queue, int64(v))
			}
		}
	}
	return &Result{Source: source, Dist: dist, Parent: parent}
}
