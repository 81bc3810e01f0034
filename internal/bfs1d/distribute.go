package bfs1d

import (
	"sync"

	"repro/internal/graph"
	"repro/internal/spmat"
)

// LocalGraph is one rank's share of the distributed graph: a CSR over the
// rank's owned vertices (rows indexed locally) whose adjacency entries
// are global vertex ids.
type LocalGraph struct {
	XAdj []int64  // len Count+1
	Adj  []uint32 // global ids, sorted per row
	// live is the rows' spmat.LiveRows mask, which the pull kernels
	// read to skip empty rows; Graph.Ins builds it once for each
	// in-adjacency it returns.
	live []uint64
}

// Graph is a 1D-distributed graph: the partition plus each rank's local
// CSR. It is built once and shared (read-only) by all rank goroutines,
// the same way an MPI job holds its local subgraph in process memory.
type Graph struct {
	Part   Part1D
	Locals []*LocalGraph
	// TotalAdj is the total number of stored adjacency slots across all
	// ranks, the m̂ the direction-switching heuristic measures unexplored
	// work against.
	TotalAdj int64
	// Symmetric declares that the CSR held both directions of every edge
	// (a symmetrized/undirected graph), letting Ins alias the push CSRs
	// instead of building an O(m) transpose. Set it before the first
	// non-top-down Run; FromCSR cannot infer it.
	Symmetric bool

	// csr is the whole-graph CSR the locals alias; the in-adjacency (the
	// bottom-up phase's pull structure) is transposed from it lazily.
	csr    *graph.CSR
	inOnce sync.Once
	ins    []*LocalGraph
}

// Distribute partitions an edge list among p ranks by edge source owner.
// Self-loops are dropped and duplicate adjacencies collapsed, matching
// the paper's static CSR construction (Section 4.1).
func Distribute(el *graph.EdgeList, p int) (*Graph, error) {
	pt := Part1D{N: el.NumVerts, P: p}
	if err := pt.Validate(); err != nil {
		return nil, err
	}
	csr, err := graph.BuildCSR(el, true)
	if err != nil {
		return nil, err
	}
	return FromCSR(csr, p)
}

// FromCSR distributes a CSR among p ranks: rank i's local graph is rows
// [Start(i), End(i)) of csr. The locals alias csr's adjacency array, so
// csr must be sorted and duplicate-free (graph.BuildCSR with dedup) and
// must not be modified afterwards; each local allocates only its rebased
// row offsets.
func FromCSR(csr *graph.CSR, p int) (*Graph, error) {
	pt := Part1D{N: csr.NumVerts, P: p}
	if err := pt.Validate(); err != nil {
		return nil, err
	}
	return &Graph{Part: pt, Locals: rowBlocks(csr, pt), TotalAdj: csr.NumEdges(), csr: csr}, nil
}

// rowBlocks cuts csr into the partition's per-rank row blocks. Each Adj
// is a capacity-capped subslice of csr.Adj, so an append to one rank's
// adjacency can never write into the next rank's rows.
func rowBlocks(csr *graph.CSR, pt Part1D) []*LocalGraph {
	locals := make([]*LocalGraph, pt.P)
	for rank := range locals {
		lo, hi := pt.Start(rank), pt.End(rank)
		base, end := csr.XAdj[lo], csr.XAdj[hi]
		xadj := make([]int64, hi-lo+1)
		for k := range xadj {
			xadj[k] = csr.XAdj[lo+int64(k)] - base
		}
		locals[rank] = &LocalGraph{XAdj: xadj, Adj: csr.Adj[base:end:end]}
	}
	return locals
}

// Ins returns the per-rank in-adjacency CSRs used by the bottom-up
// phase, building them on first call (outside any timed region: like
// the distribution itself, the pull structure is static per graph): row
// v of rank Owner(v) holds the sources u of edges u -> v. For a
// Symmetric graph the in-adjacency is the push CSR itself and no copy
// is made. Each returned local carries its live-row mask, built here
// once, so no bottom-up entry rebuilds it. Safe for concurrent callers.
func (g *Graph) Ins() []*LocalGraph {
	g.inOnce.Do(func() {
		ins := g.Locals
		if !g.Symmetric {
			ins = rowBlocks(g.csr.Transpose(), g.Part)
		}
		for _, lg := range ins {
			lg.live = spmat.LiveRows(lg.XAdj[:len(lg.XAdj)-1], lg.XAdj[1:])
		}
		g.ins = ins
	})
	return g.ins
}

// PullView presents an in-adjacency local from Ins to the shared pull
// kernel, its rows the owned vertices and its columns the n global ids.
// The view aliases XAdj, Adj and the live-row mask, so the bottom-up
// phase costs no memory beyond the CSR and one bit a row.
func (lg *LocalGraph) PullView(n int64) *spmat.PullCSR {
	return spmat.NewPullCSR(int64(len(lg.XAdj)-1), n, lg.XAdj, lg.Adj, lg.live)
}

// Neighbors returns the global adjacency ids of local vertex u on the
// given local graph.
func (lg *LocalGraph) Neighbors(u int64) []uint32 {
	return lg.Adj[lg.XAdj[u]:lg.XAdj[u+1]]
}
