package bfs2d

import (
	"sync"

	"repro/internal/graph"
	"repro/internal/spmat"
)

// Graph is a 2D-distributed graph: the partition plus one hypersparse
// matrix block per grid position, stored as a row-split set of DCSC
// strips (one strip per thread; a single strip for the flat algorithm).
//
// Blocks store the transposed adjacency matrix, as Algorithm 3 assumes:
// the entry (v, u) of block (RowBlockOf(v), ColBlockOf(u)) represents the
// directed edge u → v, so SpMSV with a frontier over columns u yields
// discoveries over rows v.
type Graph struct {
	Part   Part2D
	Blocks [][]*spmat.RowSplit // [i][j], local row/col indices
	// ColDegree[u] is the number of stored entries in global column u
	// across all blocks: vertex u's out-degree after dedup. Precomputed
	// once at distribution so per-search TEPS accounting is a single
	// streaming pass over the distance array instead of re-walking every
	// block's column structure.
	ColDegree []int64

	// Symmetric declares that the CSR held both directions of every edge
	// (a symmetrized/undirected graph), letting Pulls slice the push CSR
	// itself instead of an O(m) transpose. Set it before the first
	// non-top-down Run; FromCSR cannot infer it.
	Symmetric bool

	// csr is the whole-graph CSR the blocks were cut from, and threads
	// their strip count: Pulls slices its views from csr, or from its
	// transpose, and splits them the same way.
	csr      *graph.CSR
	threads  int
	pullOnce sync.Once
	pulls    [][]*spmat.PullSplit
}

// Pulls returns the row-major (pull) views of every block, built on
// first call: the access structure of the bottom-up phase, which scans
// unvisited rows' in-edges instead of frontier columns' out-edges. Row
// v of a block's view is the run of in-adjacency row v inside the
// block's column range (spmat.PullBlocks), so the views copy no entry.
// The in-adjacency is the push CSR itself for a Symmetric graph and its
// transpose, built once, for a directed one. Safe for concurrent
// callers; like Distribute itself, construction happens outside any
// timed region.
func (g *Graph) Pulls() [][]*spmat.PullSplit {
	g.pullOnce.Do(func() {
		in := g.csr
		if !g.Symmetric {
			in = in.Transpose()
		}
		rows, cols := g.Part.bounds()
		g.pulls = spmat.PullBlocks(in, rows, cols, g.threads)
	})
	return g.pulls
}

// Distribute builds the 2D distribution of an edge list on a pr × pc
// grid, splitting each block into threads row strips. Self-loops are
// dropped and duplicate edges collapsed.
func Distribute(el *graph.EdgeList, pr, pc, threads int) (*Graph, error) {
	pt := Part2D{N: el.NumVerts, Pr: pr, Pc: pc}
	if err := pt.Validate(); err != nil {
		return nil, err
	}
	csr, err := graph.BuildCSR(el, true)
	if err != nil {
		return nil, err
	}
	return FromCSR(csr, pr, pc, threads)
}

// FromCSR builds the 2D distribution of a sorted, duplicate-free CSR
// (graph.BuildCSR with dedup) on a pr × pc grid, splitting each block
// into threads row strips. Column u of the transposed blocks is CSR row
// u, so the blocks fill in linear passes over the CSR with no sort, and
// vertex u's column degree is its CSR degree. The graph keeps csr to
// slice its pull views from, so csr must not be modified afterwards.
func FromCSR(csr *graph.CSR, pr, pc, threads int) (*Graph, error) {
	pt := Part2D{N: csr.NumVerts, Pr: pr, Pc: pc}
	if err := pt.Validate(); err != nil {
		return nil, err
	}
	rowBounds, colBounds := pt.bounds()
	g := &Graph{
		Part:      pt,
		Blocks:    spmat.TransposedBlocks(csr, rowBounds, colBounds, threads),
		ColDegree: make([]int64, pt.N),
		csr:       csr,
		threads:   threads,
	}
	for u := range g.ColDegree {
		g.ColDegree[u] = csr.Degree(int64(u))
	}
	return g, nil
}

// NNZ returns the total stored nonzeros across all blocks.
func (g *Graph) NNZ() int64 {
	var n int64
	for i := range g.Blocks {
		for j := range g.Blocks[i] {
			n += g.Blocks[i][j].NNZ()
		}
	}
	return n
}
