// Package graph provides the in-memory graph representations used by the
// BFS implementations: raw edge lists and the compressed sparse row (CSR)
// adjacency structure described in Section 4.1 of the paper.
//
// Edge lists carry int64 vertex ids, as the paper's do. A CSR stores its
// adjacency ids as uint32, which holds every id of a graph with at most
// MaxVerts vertices and halves the bytes a scan streams; readers widen
// them to int64, and its row offsets stay int64. For undirected graphs
// each edge is stored twice (u→v and v→u), matching the paper.
package graph

import (
	"fmt"
	"slices"
)

// Edge is a directed edge from U to V.
type Edge struct {
	U, V int64
}

// EdgeList is a collection of directed edges together with the vertex
// count of the graph they belong to.
type EdgeList struct {
	NumVerts int64
	Edges    []Edge
}

// Symmetrize returns an edge list in which every edge (u,v) is accompanied
// by (v,u). Self-loops are kept once. The Graph 500 benchmark symmetrizes
// its input the same way to model undirected graphs.
func (el *EdgeList) Symmetrize() *EdgeList {
	out := make([]Edge, 0, 2*len(el.Edges))
	for _, e := range el.Edges {
		out = append(out, e)
		if e.U != e.V {
			out = append(out, Edge{e.V, e.U})
		}
	}
	return &EdgeList{NumVerts: el.NumVerts, Edges: out}
}

// MaxVerts is the most vertices a CSR may have: its adjacency ids are
// stored as uint32, and 2^32 vertices have ids up to 2^32-1.
const MaxVerts = 1 << 32

// CheckVerts returns an error naming n when a graph of n vertices cannot
// be held in a CSR: n is negative or exceeds MaxVerts.
func CheckVerts(n int64) error {
	if n < 0 {
		return fmt.Errorf("graph: negative vertex count %d", n)
	}
	if n > MaxVerts {
		return fmt.Errorf("graph: %d vertices exceed %d, the uint32 adjacency-id limit", n, int64(MaxVerts))
	}
	return nil
}

// CSR is a compressed-sparse-row adjacency structure. All adjacencies of
// vertex v live in Adj[XAdj[v]:XAdj[v+1]], sorted ascending. XAdj has
// NumVerts+1 entries. Adj holds 4-byte vertex ids, which readers widen
// to int64; NumVerts is at most MaxVerts.
type CSR struct {
	NumVerts int64
	XAdj     []int64
	Adj      []uint32
}

// NumEdges returns the number of stored adjacencies (directed edge slots).
// For an undirected graph built via Symmetrize this is twice the number of
// undirected edges (self-loops counted once).
func (g *CSR) NumEdges() int64 { return int64(len(g.Adj)) }

// Degree returns the out-degree of vertex v.
func (g *CSR) Degree(v int64) int64 { return g.XAdj[v+1] - g.XAdj[v] }

// Neighbors returns the adjacency slice of vertex v. The slice aliases the
// CSR's internal storage and must not be modified.
func (g *CSR) Neighbors(v int64) []uint32 {
	return g.Adj[g.XAdj[v]:g.XAdj[v+1]]
}

// BuildCSR constructs a CSR from an edge list using a two-pass counting
// sort on the source vertex, then sorts each adjacency block. Duplicate
// edges are retained when dedup is false (the Graph 500 generator produces
// duplicates and the benchmark keeps them); when dedup is true duplicates
// and self-loops are removed, which is the layout the paper uses for its
// local data structures. A vertex count above MaxVerts is refused before
// anything is allocated.
func BuildCSR(el *EdgeList, dedup bool) (*CSR, error) {
	n := el.NumVerts
	if err := CheckVerts(n); err != nil {
		return nil, err
	}
	for _, e := range el.Edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e.U, e.V, n)
		}
	}
	xadj := make([]int64, n+1)
	for _, e := range el.Edges {
		xadj[e.U+1]++
	}
	for i := int64(0); i < n; i++ {
		xadj[i+1] += xadj[i]
	}
	adj := make([]uint32, len(el.Edges))
	next := append([]int64(nil), xadj[:n]...)
	for _, e := range el.Edges {
		adj[next[e.U]] = uint32(e.V)
		next[e.U]++
	}
	g := &CSR{NumVerts: n, XAdj: xadj, Adj: adj}
	g.sortAdjacencies()
	if dedup {
		g = g.dedupSelfAndParallel()
	}
	return g, nil
}

func (g *CSR) sortAdjacencies() {
	for v := int64(0); v < g.NumVerts; v++ {
		slices.Sort(g.Adj[g.XAdj[v]:g.XAdj[v+1]])
	}
}

// dedupSelfAndParallel removes self-loops and parallel edges, compacting
// storage. Adjacency blocks must already be sorted. When anything was
// removed the compacted Adj is cloned to its exact length, so the
// pre-dedup slack does not stay live as long as the CSR.
func (g *CSR) dedupSelfAndParallel() *CSR {
	newXAdj := make([]int64, g.NumVerts+1)
	newAdj := g.Adj[:0] // compact in place; reads stay ahead of writes
	var w int64
	for v := int64(0); v < g.NumVerts; v++ {
		start, end := g.XAdj[v], g.XAdj[v+1]
		newXAdj[v] = w
		prev := int64(-1)
		for i := start; i < end; i++ {
			u := g.Adj[i]
			if int64(u) == v || int64(u) == prev {
				continue
			}
			newAdj = append(newAdj[:w], u)
			prev = int64(u)
			w++
		}
	}
	newXAdj[g.NumVerts] = w
	newAdj = newAdj[:w]
	if cap(newAdj) > len(newAdj) {
		// make, not slices.Clone: append may round the capacity up.
		newAdj = append(make([]uint32, 0, w), newAdj...)
	}
	return &CSR{NumVerts: g.NumVerts, XAdj: newXAdj, Adj: newAdj}
}

// Transpose returns the CSR of the reversed graph: row v holds every u
// with v in row u. One counting pass sizes the rows and one fill pass
// visits the source rows in ascending order, so every transposed row
// comes out sorted; a duplicate-free input gives a duplicate-free
// output.
func (g *CSR) Transpose() *CSR {
	xadj := make([]int64, g.NumVerts+1)
	for _, v := range g.Adj {
		xadj[v+1]++
	}
	for v := int64(0); v < g.NumVerts; v++ {
		xadj[v+1] += xadj[v]
	}
	adj := make([]uint32, len(g.Adj))
	next := append([]int64(nil), xadj[:g.NumVerts]...)
	for u := int64(0); u < g.NumVerts; u++ {
		for _, v := range g.Neighbors(u) {
			adj[next[v]] = uint32(u)
			next[v]++
		}
	}
	return &CSR{NumVerts: g.NumVerts, XAdj: xadj, Adj: adj}
}

// RelabelEdges applies the vertex permutation perm to an edge list in
// place: vertex v becomes perm[v]. Random relabeling prior to partitioning
// is the paper's load-balancing strategy (Section 4.4).
func RelabelEdges(el *EdgeList, perm []int64) error {
	if int64(len(perm)) != el.NumVerts {
		return fmt.Errorf("graph: permutation length %d != vertex count %d", len(perm), el.NumVerts)
	}
	for i := range el.Edges {
		el.Edges[i].U = perm[el.Edges[i].U]
		el.Edges[i].V = perm[el.Edges[i].V]
	}
	return nil
}
