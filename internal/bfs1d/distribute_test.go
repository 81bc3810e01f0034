package bfs1d

import (
	"slices"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/rmat"
	"repro/internal/webgen"
)

// sortBuiltLocals is the reference 1D construction: bucket the edge list by
// owner, sort each bucket, and drop self-loops and duplicates while
// filling each rank's CSR. With transpose true it builds the
// in-adjacency. FromCSR must reproduce it exactly.
func sortBuiltLocals(el *graph.EdgeList, pt Part1D, transpose bool) []*LocalGraph {
	p := pt.P
	locals := make([]*LocalGraph, p)
	buckets := make([][]graph.Edge, p)
	for _, e := range el.Edges {
		if transpose {
			e = graph.Edge{U: e.V, V: e.U}
		}
		o := pt.Owner(e.U)
		buckets[o] = append(buckets[o], e)
	}
	for rank := 0; rank < p; rank++ {
		nloc := pt.Count(rank)
		start := pt.Start(rank)
		lg := &LocalGraph{XAdj: make([]int64, nloc+1)}
		es := buckets[rank]
		sort.Slice(es, func(i, j int) bool {
			if es[i].U != es[j].U {
				return es[i].U < es[j].U
			}
			return es[i].V < es[j].V
		})
		var prev graph.Edge
		for i, e := range es {
			if e.U == e.V {
				continue // self-loop
			}
			if i > 0 && e == prev {
				continue // duplicate
			}
			prev = e
			lg.XAdj[e.U-start+1]++
			lg.Adj = append(lg.Adj, uint32(e.V))
		}
		for i := int64(0); i < nloc; i++ {
			lg.XAdj[i+1] += lg.XAdj[i]
		}
		locals[rank] = lg
	}
	return locals
}

// referenceGraph is one input the distributions are compared on.
type referenceGraph struct {
	name string
	el   *graph.EdgeList
}

// referenceGraphs returns an R-MAT graph, a high-diameter crawl, a
// directed graph, and a small graph with self-loops, duplicate edges
// and isolated vertices.
func referenceGraphs(t *testing.T) []referenceGraph {
	t.Helper()
	rm, err := rmat.Graph500(10, 16, 0x1a).GenerateUndirected()
	if err != nil {
		t.Fatal(err)
	}
	crawl, err := webgen.UKUnionLike(1<<10, 0x1b).GenerateUndirected()
	if err != nil {
		t.Fatal(err)
	}
	directed, err := rmat.Graph500(10, 8, 0x1c).Generate()
	if err != nil {
		t.Fatal(err)
	}
	// Vertices 31..39 are isolated; k*7 ≡ k*13 (mod 31) at k ≡ 0 makes
	// self-loops, and the sequence repeats every 31 edges.
	messy := &graph.EdgeList{NumVerts: 40}
	for k := int64(0); k < 100; k++ {
		messy.Edges = append(messy.Edges, graph.Edge{U: k * 7 % 31, V: k * 13 % 31})
	}
	return []referenceGraph{
		{"rmat10", rm}, {"crawl", crawl}, {"directed", directed}, {"messy", messy.Symmetrize()},
	}
}

func sameLocals(t *testing.T, what string, got, want []*LocalGraph) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d locals, want %d", what, len(got), len(want))
	}
	for rank := range want {
		if !slices.Equal(got[rank].XAdj, want[rank].XAdj) || !slices.Equal(got[rank].Adj, want[rank].Adj) {
			t.Fatalf("%s: rank %d differs from the sorted buckets", what, rank)
		}
	}
}

// TestPullViewAliasesCSR pins the bottom-up structure to zero copies:
// the uint32 PullCSR a rank's pull scans shares its in-adjacency's
// arrays, which for a Symmetric graph are slices of the whole-graph
// CSR. The CSR already stores 4-byte ids, so the pull view needs no
// narrowing copy; a view that made one, per rank or per search session,
// would fail here.
func TestPullViewAliasesCSR(t *testing.T) {
	for _, rg := range referenceGraphs(t) {
		csr, err := graph.BuildCSR(rg.el, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, symmetric := range []bool{false, true} {
			dg, err := FromCSR(csr, 3)
			if err != nil {
				t.Fatal(err)
			}
			dg.Symmetric = symmetric
			for rank, lg := range dg.Ins() {
				pv := lg.PullView(dg.Part.N)
				if pv.Rows != dg.Part.Count(rank) || pv.Cols != dg.Part.N {
					t.Errorf("%s rank %d: view is %dx%d", rg.name, rank, pv.Rows, pv.Cols)
				}
				if &pv.RowPtr[0] != &lg.XAdj[0] {
					t.Errorf("%s rank %d: RowPtr is a copy", rg.name, rank)
				}
				if len(lg.Adj) == 0 {
					continue
				}
				if &pv.ColInd[0] != &lg.Adj[0] {
					t.Errorf("%s rank %d: ColInd is a copy", rg.name, rank)
				}
				if symmetric && &pv.ColInd[0] != &csr.Adj[csr.XAdj[dg.Part.Start(rank)]] {
					t.Errorf("%s rank %d: symmetric ColInd does not alias the CSR", rg.name, rank)
				}
			}
		}
	}
}

// TestFromCSRMatchesSortedBuckets: slicing the deduplicated CSR must give
// byte-for-byte the locals and in-adjacencies the bucket-and-sort
// reference makes from the edge list, while aliasing the CSR's adjacency
// array with capacity capped at each rank's own rows.
func TestFromCSRMatchesSortedBuckets(t *testing.T) {
	for _, rg := range referenceGraphs(t) {
		csr, err := graph.BuildCSR(rg.el, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{1, 3, 16} {
			dg, err := FromCSR(csr, p)
			if err != nil {
				t.Fatal(err)
			}
			pt := dg.Part
			sameLocals(t, rg.name+" locals", dg.Locals, sortBuiltLocals(rg.el, pt, false))
			sameLocals(t, rg.name+" ins", dg.Ins(), sortBuiltLocals(rg.el, pt, true))
			if dg.TotalAdj != csr.NumEdges() {
				t.Errorf("%s p=%d: TotalAdj %d, want %d", rg.name, p, dg.TotalAdj, csr.NumEdges())
			}
			for rank, lg := range dg.Locals {
				if cap(lg.Adj) != len(lg.Adj) {
					t.Errorf("%s p=%d rank %d: cap(Adj) %d != len %d", rg.name, p, rank, cap(lg.Adj), len(lg.Adj))
				}
				if len(lg.Adj) > 0 && &lg.Adj[0] != &csr.Adj[csr.XAdj[pt.Start(rank)]] {
					t.Errorf("%s p=%d rank %d: Adj does not alias the CSR", rg.name, p, rank)
				}
			}
		}
	}
}
