package rmat

import (
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func TestValidate(t *testing.T) {
	if err := Graph500(10, 16, 1).Validate(); err != nil {
		t.Errorf("Graph500 params invalid: %v", err)
	}
	bad := Graph500(10, 16, 1)
	bad.A = 0.9
	if err := bad.Validate(); err == nil {
		t.Error("probabilities summing to 1.31 accepted")
	}
	if err := (Params{Scale: 0, EdgeFactor: 16, A: 1}).Validate(); err == nil {
		t.Error("scale 0 accepted")
	}
	if err := (Params{Scale: 5, EdgeFactor: 0, A: 1}).Validate(); err == nil {
		t.Error("edge factor 0 accepted")
	}
}

// TestValidateEdgeCountOverflow: an EdgeFactor·2^Scale that wraps int64
// is refused, and the largest one that fits is accepted. Only Validate
// runs; nothing is generated.
func TestValidateEdgeCountOverflow(t *testing.T) {
	for _, c := range []struct {
		scale, edgeFactor int
		ok                bool
	}{
		{62, 1, true},
		{62, 2, false}, // 2·2^62 wraps to MinInt64
		{62, 16, false},
		{60, 7, true},
		{60, 8, false}, // 8·2^60 wraps to MinInt64
		{40, 1 << 23, false},
		{40, 1<<23 - 1, true},
	} {
		err := Graph500(c.scale, c.edgeFactor, 1).Validate()
		if (err == nil) != c.ok {
			t.Errorf("scale %d edge factor %d: Validate() = %v, want ok=%v", c.scale, c.edgeFactor, err, c.ok)
		}
	}
}

func TestCounts(t *testing.T) {
	p := Graph500(8, 16, 7)
	if p.NumVerts() != 256 {
		t.Errorf("NumVerts = %d", p.NumVerts())
	}
	if p.NumEdges() != 4096 {
		t.Errorf("NumEdges = %d", p.NumEdges())
	}
	el, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(el.Edges)) != p.NumEdges() {
		t.Errorf("generated %d edges, want %d", len(el.Edges), p.NumEdges())
	}
	for _, e := range el.Edges {
		if e.U < 0 || e.U >= 256 || e.V < 0 || e.V >= 256 {
			t.Fatalf("edge %v out of range", e)
		}
	}
}

func TestDeterministicAndSliceable(t *testing.T) {
	p := Graph500(9, 8, 99)
	whole, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	// Generating in 3 arbitrary slices must reproduce the same sequence.
	cuts := []int64{0, 1000, 1001, p.NumEdges()}
	var pieced []graph.Edge
	for i := 0; i+1 < len(cuts); i++ {
		part, err := p.GenerateRange(cuts[i], cuts[i+1])
		if err != nil {
			t.Fatal(err)
		}
		pieced = append(pieced, part.Edges...)
	}
	if len(pieced) != len(whole.Edges) {
		t.Fatalf("pieced %d edges, want %d", len(pieced), len(whole.Edges))
	}
	for i := range pieced {
		if pieced[i] != whole.Edges[i] {
			t.Fatalf("edge %d: %v != %v", i, pieced[i], whole.Edges[i])
		}
	}
}

// TestGenerateRangeIndependentOfCores: the parallel fill must equal the
// serial Edge(i) sequence whatever the worker count, including ranges
// whose ends fall inside a worker's chunk and ranges too small to split.
func TestGenerateRangeIndependentOfCores(t *testing.T) {
	p := Graph500(12, 8, 0x2a)
	m := p.NumEdges()
	ranges := [][2]int64{{0, m}, {3, m - 5}, {1, 9999}, {4095, 4097}, {777, 777}}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 7} {
		runtime.GOMAXPROCS(procs)
		for _, r := range ranges {
			el, err := p.GenerateRange(r[0], r[1])
			if err != nil {
				t.Fatal(err)
			}
			if int64(len(el.Edges)) != r[1]-r[0] {
				t.Fatalf("GOMAXPROCS=%d [%d,%d): %d edges", procs, r[0], r[1], len(el.Edges))
			}
			for k, e := range el.Edges {
				if want := p.Edge(r[0] + int64(k)); e != want {
					t.Fatalf("GOMAXPROCS=%d [%d,%d): edge %d is %v, want %v", procs, r[0], r[1], r[0]+int64(k), e, want)
				}
			}
		}
	}
}

func TestGenerateRangeBounds(t *testing.T) {
	p := Graph500(6, 4, 1)
	if _, err := p.GenerateRange(-1, 5); err == nil {
		t.Error("negative lo accepted")
	}
	if _, err := p.GenerateRange(10, 5); err == nil {
		t.Error("hi < lo accepted")
	}
	if _, err := p.GenerateRange(0, p.NumEdges()+1); err == nil {
		t.Error("hi beyond edge count accepted")
	}
}

func TestSkewedDegreeDistribution(t *testing.T) {
	// R-MAT with Graph 500 parameters must produce a heavily skewed degree
	// distribution: the max degree far exceeds the mean.
	p := Graph500(12, 16, 5)
	p.Noise = 0 // exact self-similarity maximizes skew; also covers this path
	el, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.BuildCSR(el, false)
	if err != nil {
		t.Fatal(err)
	}
	var maxDeg, isolated int64
	for v := int64(0); v < g.NumVerts; v++ {
		d := g.Degree(v)
		maxDeg = max(maxDeg, d)
		if d == 0 {
			isolated++
		}
	}
	mean := float64(len(g.Adj)) / float64(g.NumVerts)
	if maxDeg < 10*int64(mean) {
		t.Errorf("max degree %d not skewed vs mean %.1f", maxDeg, mean)
	}
	if isolated == 0 {
		t.Error("R-MAT at scale 12 should leave some vertices isolated")
	}
}

func TestPermutationBijective(t *testing.T) {
	check := func(seed uint64) bool {
		p := Graph500(7, 4, seed)
		perm := p.Permutation()
		if int64(len(perm)) != p.NumVerts() {
			return false
		}
		seen := make([]bool, len(perm))
		for _, v := range perm {
			if v < 0 || v >= int64(len(perm)) || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestGenerateUndirectedSymmetric(t *testing.T) {
	p := Graph500(8, 8, 3)
	el, err := p.GenerateUndirected()
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.BuildCSR(el, true)
	if err != nil {
		t.Fatal(err)
	}
	for u := int64(0); u < g.NumVerts; u++ {
		for _, v := range g.Neighbors(u) {
			found := false
			for _, w := range g.Neighbors(int64(v)) {
				if int64(w) == u {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("edge (%d,%d) has no reverse", u, v)
			}
		}
	}
}

func TestSeedChangesGraph(t *testing.T) {
	a, err := Graph500(8, 4, 1).Generate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Graph500(8, 4, 2).Generate()
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a.Edges {
		if a.Edges[i] == b.Edges[i] {
			same++
		}
	}
	if same == len(a.Edges) {
		t.Error("different seeds produced identical graphs")
	}
}
