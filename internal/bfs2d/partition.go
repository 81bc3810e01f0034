// Package bfs2d implements the paper's 2D sparse-matrix partitioned BFS
// (Algorithm 3): the adjacency matrix is checkerboard-partitioned on a
// pr × pc process grid, and each BFS level is a sparse matrix-sparse
// vector product (SpMSV) over the (select,max) semiring with an
// Allgatherv "expand" along process columns and an Alltoallv "fold" along
// process rows.
//
// Vectors use the paper's 2D vector distribution: vector block i (the
// n/pr-sized range aligned with matrix row block i) is owned collectively
// by process row i, each of its pc members holding one piece. The
// diagonal-only ("1D") vector distribution the paper measures against in
// Figure 4 is available as an option.
package bfs2d

import (
	"fmt"
	"math"

	"repro/internal/spmat"
)

// Part2D maps global indices to the 2D block structure of a pr × pc grid.
type Part2D struct {
	N      int64
	Pr, Pc int
}

// Validate reports whether the partition parameters are usable.
func (pt Part2D) Validate() error {
	if pt.N < 1 || pt.Pr < 1 || pt.Pc < 1 {
		return fmt.Errorf("bfs2d: invalid partition n=%d grid=%dx%d", pt.N, pt.Pr, pt.Pc)
	}
	if int64(pt.Pr)*int64(pt.Pc) > pt.N {
		return fmt.Errorf("bfs2d: more ranks (%d) than vertices (%d)", pt.Pr*pt.Pc, pt.N)
	}
	if pt.N > math.MaxInt64/int64(max(pt.Pr, pt.Pc)) {
		return fmt.Errorf("bfs2d: n·max(pr, pc) = %d·%d reaches 2^63, overflowing the owner lookups",
			pt.N, max(pt.Pr, pt.Pc))
	}
	// Blocks are ⌊n/pr⌋ or ⌈n/pr⌉ rows by ⌊n/pc⌋ or ⌈n/pc⌉ columns;
	// the largest must fit the blocks' uint32 local ids.
	rows := (pt.N + int64(pt.Pr) - 1) / int64(pt.Pr)
	cols := (pt.N + int64(pt.Pc) - 1) / int64(pt.Pc)
	if err := spmat.CheckBlockDims(rows, cols); err != nil {
		return fmt.Errorf("bfs2d: n=%d on a %dx%d grid: %w", pt.N, pt.Pr, pt.Pc, err)
	}
	return nil
}

// RowStart returns the first global row of matrix row block i; row blocks
// coincide with vector blocks.
func (pt Part2D) RowStart(i int) int64 { return int64(i) * pt.N / int64(pt.Pr) }

// ColStart returns the first global column of matrix column block j.
func (pt Part2D) ColStart(j int) int64 { return int64(j) * pt.N / int64(pt.Pc) }

// RowBlockOf returns the row block containing global index v.
func (pt Part2D) RowBlockOf(v int64) int { return blockOf(v, pt.N, pt.Pr) }

// ColBlockOf returns the column block containing global index v.
func (pt Part2D) ColBlockOf(v int64) int { return blockOf(v, pt.N, pt.Pc) }

// blockOf returns the block containing offset w when span items are cut
// into k blocks at ⌊i·span/k⌋: the largest i with ⌊i·span/k⌋ ≤ w, which
// is ⌊((w+1)·k − 1)/span⌋ exactly. Every caller's span·k is at most
// n·max(pr, pc), which Validate keeps below 2^63.
func blockOf(w, span int64, k int) int {
	return int((uint64(w+1)*uint64(k) - 1) / uint64(span))
}

// VecStart returns the first global index of piece j of vector block b:
// within block b, the pc pieces partition the block evenly. Piece j of
// block b is owned by grid process P(b, j).
func (pt Part2D) VecStart(b, j int) int64 {
	lo, hi := pt.RowStart(b), pt.RowStart(b+1)
	return lo + (hi-lo)*int64(j)/int64(pt.Pc)
}

// OwnedRange returns the global vector range [lo, hi) owned by the rank
// at grid position (i, j) under the 2D vector distribution.
func (pt Part2D) OwnedRange(i, j int) (lo, hi int64) {
	return pt.VecStart(i, j), pt.VecStart(i, j+1)
}

// TransposeOwner returns the grid position (i, j) that collects global
// vertex v during the rectangular transpose exchange: j is v's column
// block, i the sub-piece of that block containing v, where the pr
// sub-pieces partition the block's column range evenly. The expand
// Allgatherv along process column j therefore assembles the block's
// frontier in ascending order from ascending sub-pieces. On a square grid
// this coincides with the pairwise transpose target of the piece
// holding v, which is why the square path can use the cheaper
// involution exchange.
func (pt Part2D) TransposeOwner(v int64) (i, j int) {
	j = pt.ColBlockOf(v)
	lo, hi := pt.ColStart(j), pt.ColStart(j+1)
	return blockOf(v-lo, hi-lo, pt.Pr), j
}

// VecOwner returns the grid position (i, j) owning global vector index v.
func (pt Part2D) VecOwner(v int64) (i, j int) {
	i = pt.RowBlockOf(v)
	lo, hi := pt.RowStart(i), pt.RowStart(i+1)
	return i, blockOf(v-lo, hi-lo, pt.Pc)
}

// bounds returns the first global row of every row block and the first
// global column of every column block, each closed by N.
func (pt Part2D) bounds() (rows, cols []int64) {
	rows = make([]int64, pt.Pr+1)
	for i := range rows {
		rows[i] = pt.RowStart(i)
	}
	cols = make([]int64, pt.Pc+1)
	for j := range cols {
		cols[j] = pt.ColStart(j)
	}
	return rows, cols
}
