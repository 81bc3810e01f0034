package webgen

import (
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/serial"
)

func TestValidate(t *testing.T) {
	if err := UKUnionLike(1<<14, 1).Validate(); err != nil {
		t.Errorf("UKUnionLike invalid: %v", err)
	}
	if err := (Params{NumVerts: 10, Depth: 140, EdgeFactor: 20, HostSize: 64}).Validate(); err == nil {
		t.Error("too-small vertex count accepted")
	}
	if err := (Params{NumVerts: 1000, Depth: 1, EdgeFactor: 20, HostSize: 64}).Validate(); err == nil {
		t.Error("depth 1 accepted")
	}
}

func TestLayerBoundsPartition(t *testing.T) {
	p := UKUnionLike(10000, 3)
	b := p.layerBounds()
	if len(b) != p.Depth+1 {
		t.Fatalf("bounds length %d", len(b))
	}
	if b[0] != 0 || b[p.Depth] != p.NumVerts {
		t.Fatalf("bounds endpoints %d..%d", b[0], b[p.Depth])
	}
	for l := 0; l < p.Depth; l++ {
		if b[l+1] <= b[l] {
			t.Fatalf("layer %d empty: [%d,%d)", l, b[l], b[l+1])
		}
	}
}

func TestDiameterMatchesDepth(t *testing.T) {
	p := UKUnionLike(1<<13, 7)
	el, err := p.GenerateUndirected()
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.BuildCSR(el, true)
	if err != nil {
		t.Fatal(err)
	}
	r := serial.BFS(g, 0) // vertex 0 opens layer 0
	// Every vertex must be reachable (mandatory discovery links) ...
	if v := slices.Index(r.Dist, serial.Unreached); v >= 0 {
		t.Fatalf("vertex %d of %d not reached", v, g.NumVerts)
	}
	// ... and the BFS depth must equal the crawl depth, the property
	// Figure 11 depends on (~140 level-synchronous iterations).
	if got, want := r.MaxLevel(), int64(p.Depth-1); got != want {
		t.Errorf("BFS depth = %d, want %d", got, want)
	}
}

func TestSkewedDegrees(t *testing.T) {
	// Hub degree grows with layer size (≈ n/Depth), so the skew ratio is
	// only visible once layers hold a few hundred vertices.
	p := UKUnionLike(1<<15, 11)
	el, err := p.GenerateUndirected()
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.BuildCSR(el, true)
	if err != nil {
		t.Fatal(err)
	}
	var maxDeg int64
	for v := int64(0); v < g.NumVerts; v++ {
		maxDeg = max(maxDeg, g.Degree(v))
	}
	mean := float64(len(g.Adj)) / float64(g.NumVerts)
	if maxDeg < 4*int64(mean) {
		t.Errorf("hub structure missing: max degree %d vs mean %.1f", maxDeg, mean)
	}
}

func TestDeterminism(t *testing.T) {
	a, err := UKUnionLike(4096, 5).Generate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := UKUnionLike(4096, 5).Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Edges) != len(b.Edges) {
		t.Fatalf("edge counts differ: %d vs %d", len(a.Edges), len(b.Edges))
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
}
