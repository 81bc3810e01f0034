package bfs2d

// The level-loop pieces the drivers share: the entry checks, the per-run
// set-up and rank frame, the transpose, the partitioned frontier
// exchange, and the local-phase charges.

import (
	"fmt"
	mbits "math/bits"
	"sort"

	"repro/internal/bits"
	"repro/internal/cluster"
	"repro/internal/dirheur"
	"repro/internal/levels"
	"repro/internal/scratch"
	"repro/internal/serial"
	"repro/internal/smp"
	"repro/internal/spmat"
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

// setup is the per-run state of Run, RunBatch and the diagonal layout.
type setup struct {
	grid     *cluster.Grid
	g        *Graph
	price    cluster.Pricer
	t        int                  // strips per block, at least 1
	pulls    [][]*spmat.PullSplit // nil when the run is top-down only
	totalAdj int64                // stored nonzeros, the heuristic's edge total
	arena    *Arena
}

// prepare does every driver's per-run set-up: it clamps the strip width,
// builds the pull views unless the run is top-down only, and sizes the
// arena. Without opt.Arena the run gets a private arena, whose worker
// teams release closes.
func prepare(w *cluster.World, grid *cluster.Grid, g *Graph, opt Options) (s setup, release func()) {
	s = setup{grid: grid, g: g, price: opt.Price, t: max(opt.Threads, 1), arena: opt.Arena}
	if opt.Direction != dirheur.ModeTopDown {
		s.pulls, s.totalAdj = g.Pulls(), g.NNZ()
	}
	release = func() {}
	if s.arena == nil {
		s.arena = &Arena{}
		release = s.arena.Close
	}
	s.arena.ranks = scratch.Ranks(s.arena.ranks, w.P)
	return s, release
}

// frame is one rank's place in a run: its grid position and matrix
// block, its row and column subcommunicators, its owned vector piece,
// row block and block column, its strip team (nil on flat runs), and
// its fold send buffers, one per process-row member.
type frame struct {
	i, j          int
	block         *spmat.RowSplit
	rowG, colG    *cluster.Group
	own, row, col span
	pool          *smp.Pool
	send          [][]int64
}

// enter fills rank r's frame, which lives in its arena, and returns both.
func (s setup) enter(r *cluster.Rank) (*rankArena, *frame) {
	ar := &s.arena.ranks[r.ID()]
	f, pt := &ar.frame, s.g.Part
	f.i, f.j = s.grid.RowOf(r.ID()), s.grid.ColOf(r.ID())
	f.block = s.g.Blocks[f.i][f.j]
	f.rowG, f.colG = s.grid.RowGroup(r), s.grid.ColGroup(r)
	lo, hi := pt.OwnedRange(f.i, f.j)
	f.own = span{lo, hi}
	f.row = span{pt.RowStart(f.i), pt.RowStart(f.i + 1)}
	f.col = span{pt.ColStart(f.j), pt.ColStart(f.j + 1)}
	f.pool = nil
	if s.t > 1 { // a persistent team, recycled while the width matches
		ar.pool = smp.Team(ar.pool, s.t)
		f.pool = ar.pool
	}
	if len(f.send) != s.grid.Pc {
		f.send = make([][]int64, s.grid.Pc)
	}
	return ar, f
}

// transpose is Algorithm 3's TransposeVector over frontier records of
// stride words, vertex id first: ids for a search, (vertex, mask) pairs
// for a batch. It returns the records this rank collects, ascending by
// vertex, for the expand's merge-join. A square grid swaps whole pieces
// with the transpose peer, since P(i,j) -> P(j,i) is an involution. A
// rectangular grid routes each record to the rank collecting its
// sub-piece of its column block (Part2D.TransposeOwner) through one
// world Alltoallv, and sorts what arrives; sub-piece vertices are unique
// across senders, so the sort is a permutation. Buffers are reused per
// level under the fold's read-before-next-collective discipline.
func (s setup) transpose(r *cluster.Rank, ar *rankArena, recs []int64, stride int) []int64 {
	grid := s.grid
	if grid.Square() {
		return grid.All.SendRecvAll(r, grid.TransposePeer, recs, "transpose")
	}
	if len(ar.sendT) != grid.Pr*grid.Pc {
		ar.sendT = make([][]int64, grid.Pr*grid.Pc)
	}
	for k := range ar.sendT {
		ar.sendT[k] = ar.sendT[k][:0]
	}
	for k := 0; k < len(recs); k += stride {
		ti, tj := s.g.Part.TransposeOwner(recs[k])
		ar.sendT[ti*grid.Pc+tj] = append(ar.sendT[ti*grid.Pc+tj], recs[k:k+stride]...)
	}
	moved := ar.moved.s[:0]
	for _, part := range grid.All.Alltoallv(r, ar.sendT, "transpose") {
		moved = append(moved, part...)
	}
	ar.moved = records{moved, stride}
	sort.Sort(&ar.moved)
	sent, mv := int64(len(recs)), int64(len(moved))
	r.ChargeMem(s.price, 0, 0, sent+2*mv, sent+mv*int64(mbits.Len64(uint64(mv))))
	return moved
}

// records orders stride-word records by their leading vertex id.
type records struct {
	s      []int64
	stride int
}

func (x *records) Len() int           { return len(x.s) / x.stride }
func (x *records) Less(a, b int) bool { return x.s[a*x.stride] < x.s[b*x.stride] }
func (x *records) Swap(a, b int) {
	for k := 0; k < x.stride; k++ {
		x.s[a*x.stride+k], x.s[b*x.stride+k] = x.s[b*x.stride+k], x.s[a*x.stride+k]
	}
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

// claimFold commits the fold's received pieces, each a run of (global
// vertex, parent) pairs, into the owned range that starts at global id
// lo, whose distances and parents are dist and parent, as the pairs
// arrive: an unreached vertex is claimed at level, and a vertex claimed
// earlier in the same level keeps the larger parent. That is the
// (select,max) merge of Algorithm 3 line 8 followed by the visited mask,
// with no merged vector between them. seen, clear on entry and on
// return, marks every vertex the pieces name; the new frontier is read
// off it in ascending order and appended to frontier as global ids.
// distinct is the number of distinct vertices received, the length of
// the merged vector the model prices. A trailing odd word in a piece is
// ignored.
func claimFold(pieces [][]int64, lo, level int64, dist, parent []int64, seen *bits.Bitmap, frontier []int64) (_ []int64, distinct int64) {
	for _, p := range pieces {
		for k := 0; k+1 < len(p); k += 2 {
			vl, par := p[k]-lo, p[k+1]
			switch {
			case seen.TestAndSet(vl):
				distinct++
				if parent[vl] == serial.Unreached {
					parent[vl], dist[vl] = par, level
				}
			case dist[vl] == level && par > parent[vl]:
				parent[vl] = par
			}
		}
	}
	ws := seen.Words()
	for w, word := range ws {
		if word == 0 {
			continue
		}
		ws[w] = 0
		for ; word != 0; word &= word - 1 {
			vl := int64(w)*64 + int64(mbits.TrailingZeros64(word))
			if dist[vl] == level {
				frontier = append(frontier, lo+vl)
			}
		}
	}
	return frontier, distinct
}
