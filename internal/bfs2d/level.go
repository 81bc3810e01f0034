package bfs2d

// The level-loop pieces Run and RunBatch share: the entry checks, the
// partitioned frontier exchange, and the local-phase charges.

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/levels"
)

// checkGrid reports a grid or world that does not match the
// distribution pt. Violated entry preconditions are errors, never
// panics, so engines can surface a bad rank count to their callers.
func checkGrid(w *cluster.World, grid *cluster.Grid, pt Part2D) error {
	if grid.Pr != pt.Pr || grid.Pc != pt.Pc {
		return fmt.Errorf("bfs2d: %dx%d grid does not match %dx%d distribution",
			grid.Pr, grid.Pc, pt.Pr, pt.Pc)
	}
	if w.P != grid.Pr*grid.Pc {
		return fmt.Errorf("bfs2d: world of %d ranks does not match %dx%d grid",
			w.P, grid.Pr, grid.Pc)
	}
	return nil
}

// span is a half-open [lo, hi) range of vertices or plane words.
type span struct{ lo, hi int64 }

func (s span) len() int64 { return s.hi - s.lo }

// words returns the word range of a one-bit-per-vertex bitmap covering
// the vertex range s, padded out to word boundaries.
func (s span) words() span { return span{s.lo / 64, (s.hi + 63) / 64} }

// exchange is one rank's partitioned frontier exchange over the grid
// subcommunicators. Its planes are indexed by global word: one bit per
// vertex for a single search, whose padded ranges make adjacent deposits
// overlap by at most one word (the collective's OR merge absorbs it),
// and one mask word per vertex for a batch, whose ranges are exact.
type exchange struct {
	rowG, colG *cluster.Group
	price      cluster.Pricer
	// own is the rank's owned piece (its deposit), row its row block
	// (the visited slice and the row-subcommunicator exchange), col its
	// block column (the pull probe range and the column exchange).
	own, row, col span
}

// rowHop assembles dst's row-block slice from the owned pieces src[own]
// of the pc members of this rank's process row.
func (x *exchange) rowHop(r *cluster.Rank, src, dst []uint64) {
	copy(dst[x.row.lo:x.row.hi], x.rowG.AllgatherBitsBlocks(r,
		src[x.own.lo:x.own.hi], x.own.lo-x.row.lo, x.row.len(), "bitmap"))
}

// frontier moves the owned new-frontier words chunk[own] through both
// grid subcommunicator exchanges: the row hop assembles the full
// frontier of this row block into rowFront (which also feeds the
// visited slice), then the column hop assembles this rank's block-column
// slice into front from the row-block intersections held by the pr
// column members. Per-rank traffic is O(n/pr + n/pc) words instead of a
// dense world-wide plane.
func (x *exchange) frontier(r *cluster.Rank, chunk, rowFront, front []uint64) {
	x.rowHop(r, chunk, rowFront)
	iLo, iHi := max(x.row.lo, x.col.lo), min(x.row.hi, x.col.hi)
	var dep []uint64
	var off int64
	if iLo < iHi { // this row block intersects my block column
		dep, off = rowFront[iLo:iHi], iLo-x.col.lo
	}
	copy(front[x.col.lo:x.col.hi], x.colG.AllgatherBitsBlocks(r, dep, off, x.col.len(), "bitmap"))
	r.ChargeMem(x.price, 0, 0, 2*(x.row.len()+x.col.len()), 0)
}

// chargePull charges a bottom-up pull that scanned entries over rows
// block rows: one random probe into the colWords-word block-column
// frontier slice per scanned entry, the adjacency stream, one visited
// probe per block row, plus the hybrid concatenation of cand candidates
// and its barrier.
func chargePull(r *cluster.Rank, price cluster.Pricer, t int, scanned, rows, colWords, cand int64) {
	if price != nil {
		levels.ChargeHybrid(r, price, t, price.MemCost(scanned+rows, colWords, scanned, scanned), cand, 1)
	}
}

// chargeSpMSV charges a top-down local SpMSV of work entries over rows
// block rows split into t strips, emitting cand candidates, plus the
// hybrid concatenation and its barrier.
func chargeSpMSV(r *cluster.Rank, price cluster.Pricer, t int, work, rows, cand int64) {
	if price != nil {
		levels.ChargeHybrid(r, price, t, price.MemCost(work, rows/int64(t), work+cand, work), cand, 1)
	}
}
