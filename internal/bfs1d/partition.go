// Package bfs1d implements the paper's 1D-partitioned level-synchronous
// distributed BFS (Algorithm 2), in flat (one rank per core) and hybrid
// (multithreaded rank) variants.
//
// Each rank owns a contiguous block of ~n/p vertices and all edges out of
// them, stored CSR-style with global column ids. A BFS level enumerates
// the adjacencies of the local frontier into per-owner buffers (with
// thread-local staging in the hybrid variant), exchanges them with a
// single Alltoallv, and integrates received vertices into the local
// distance/parent arrays. The only global synchronization per level is
// the exchange plus one Allreduce for the termination test.
package bfs1d

import (
	"fmt"
	"math"
)

// Part1D maps global vertex ids to owning ranks and block bounds. Blocks
// are the balanced contiguous ranges start(i) = i*n/p (computed in int64
// arithmetic), so block sizes differ by at most one.
type Part1D struct {
	N int64
	P int
}

// Start returns the first global vertex owned by rank i.
func (pt Part1D) Start(i int) int64 { return int64(i) * pt.N / int64(pt.P) }

// End returns one past the last global vertex owned by rank i.
func (pt Part1D) End(i int) int64 { return int64(i+1) * pt.N / int64(pt.P) }

// Count returns the number of vertices owned by rank i.
func (pt Part1D) Count(i int) int64 { return pt.End(i) - pt.Start(i) }

// Owner returns the rank owning global vertex v: the largest i with
// ⌊i·n/p⌋ ≤ v, which is ⌊((v+1)·p − 1)/n⌋ exactly. Validate keeps
// n·p below 2^63, so the product cannot wrap.
func (pt Part1D) Owner(v int64) int {
	return int((uint64(v+1)*uint64(pt.P) - 1) / uint64(pt.N))
}

// Validate reports whether the partition parameters are usable.
func (pt Part1D) Validate() error {
	if pt.N < 1 || pt.P < 1 {
		return fmt.Errorf("bfs1d: invalid partition n=%d p=%d", pt.N, pt.P)
	}
	if int64(pt.P) > pt.N {
		return fmt.Errorf("bfs1d: more ranks (%d) than vertices (%d)", pt.P, pt.N)
	}
	if pt.N > math.MaxInt64/int64(pt.P) {
		return fmt.Errorf("bfs1d: n·p = %d·%d reaches 2^63, overflowing the owner lookup", pt.N, pt.P)
	}
	return nil
}
