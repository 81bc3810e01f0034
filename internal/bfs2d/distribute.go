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

	pullOnce sync.Once
	pulls    [][]*spmat.PullSplit
}

// Pulls returns the row-major (pull) views of every block, built on
// first call: the access structure of the bottom-up phase, which scans
// unvisited rows' in-edges instead of frontier columns' out-edges. The
// blocks already store the transposed adjacency, so the row scan visits
// exactly the in-neighbors, for directed inputs too. Safe for
// concurrent callers; like Distribute itself, construction happens
// outside any timed region.
func (g *Graph) Pulls() [][]*spmat.PullSplit {
	g.pullOnce.Do(func() {
		g.pulls = make([][]*spmat.PullSplit, len(g.Blocks))
		for i := range g.Blocks {
			g.pulls[i] = make([]*spmat.PullSplit, len(g.Blocks[i]))
			for j, blk := range g.Blocks[i] {
				g.pulls[i][j] = blk.PullView()
			}
		}
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
// vertex u's column degree is its CSR degree.
func FromCSR(csr *graph.CSR, pr, pc, threads int) (*Graph, error) {
	pt := Part2D{N: csr.NumVerts, Pr: pr, Pc: pc}
	if err := pt.Validate(); err != nil {
		return nil, err
	}
	rowBounds := make([]int64, pr+1)
	for i := range rowBounds {
		rowBounds[i] = pt.RowStart(i)
	}
	colBounds := make([]int64, pc+1)
	for j := range colBounds {
		colBounds[j] = pt.ColStart(j)
	}
	g := &Graph{
		Part:      pt,
		Blocks:    spmat.TransposedBlocks(csr, rowBounds, colBounds, threads),
		ColDegree: make([]int64, pt.N),
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
