package spmat

import (
	mbits "math/bits"

	"repro/internal/bits"
	"repro/internal/smp"
	"repro/internal/spvec"
)

// PullCSR is the row-major (CSR) view of a sparse block, the access
// pattern of the bottom-up ("pull") BFS phase: where the column-oriented
// DCSC answers "which rows does frontier column c reach?", the PullCSR
// answers "which columns reach unvisited row r?" so the scan can stop at
// the first frontier parent instead of streaming every edge.
//
// Row r lists its columns in Adj[Beg[r]:End[r]], as global vertex ids
// (uint32, widened on read) in ascending order. Beg and End are absolute
// offsets into Adj, so a view is a slice of a larger CSR and copies no
// entry: the 1D driver's view of its rank's rows has Beg = XAdj[:n] and
// End = XAdj[1:], a 2D block's view holds, for each row of its row
// block, the run of the in-adjacency row whose ids fall in its column
// block (PullBlocks), and SubRows views for thread strips alias the same
// arrays. Cols is the width of the column range the ids fall in.
type PullCSR struct {
	Rows, Cols int64
	Beg, End   []int64  // len Rows: row r is Adj[Beg[r]:End[r]]
	Adj        []uint32 // global column ids, ascending within each row
}

// NewPullCSR wraps rows of an existing CSR without copying: row r is
// adj[xadj[r]:xadj[r+1]]. The 1D driver uses it to present its local
// in-adjacency to the shared pull kernel.
func NewPullCSR(rows, cols int64, xadj []int64, adj []uint32) *PullCSR {
	return &PullCSR{Rows: rows, Cols: cols, Beg: xadj[:rows], End: xadj[1 : rows+1], Adj: adj}
}

// SubRows returns a view over rows [lo, hi) sharing the receiver's
// storage; emitted row ids are relative to lo.
func (m *PullCSR) SubRows(lo, hi int64) *PullCSR {
	return &PullCSR{Rows: hi - lo, Cols: m.Cols, Beg: m.Beg[lo:hi], End: m.End[lo:hi], Adj: m.Adj}
}

// Pull runs one bottom-up scan over the block: every row whose global id
// (visRowOff + local row) is clear in visited has its columns scanned in
// ascending order; the first column set in frontier becomes the row's
// parent candidate, and the scan of that row stops (the bottom-up early
// exit). dst receives (local row, global parent id) pairs in ascending
// row order. The returned count is the number of adjacency entries
// examined — the quantity the direction-optimizing heuristic saves.
//
// visited is read 64 rows at a time, so the scan costs O(Rows/64) word
// reads plus the unvisited rows' entries up to each early exit: fully
// visited spans cost one word each, whatever visRowOff's alignment.
func (m *PullCSR) Pull(dst *spvec.Vec, frontier, visited *bits.Bitmap, visRowOff int64) int64 {
	dst.Reset()
	var scanned int64
	vis := visited.Words()
	for base := int64(0); base < m.Rows; base += 64 {
		open := ^wordAt(vis, visRowOff+base)
		if n := m.Rows - base; n < 64 {
			open &= 1<<uint(n) - 1
		}
		for ; open != 0; open &= open - 1 {
			rl := base + int64(mbits.TrailingZeros64(open))
			for _, id := range m.Adj[m.Beg[rl]:m.End[rl]] {
				scanned++
				if c := int64(id); frontier.Get(c) {
					dst.Ind = append(dst.Ind, rl)
					dst.Val = append(dst.Val, c)
					break
				}
			}
		}
	}
	return scanned
}

// wordAt returns the 64 bits of ws that start at bit g, bit g in the
// least significant position; bits past the end of ws read as clear.
func wordAt(ws []uint64, g int64) uint64 {
	w, sh := g/64, uint(g%64)
	x := ws[w] >> sh
	if sh != 0 && w+1 < int64(len(ws)) {
		x |= ws[w+1] << (64 - sh)
	}
	return x
}

// PullSplit is the strip-parallel companion of a RowSplit: one PullCSR
// per row strip, mirroring the thread decomposition of the push-side
// SpMSV so the hybrid variant pulls one strip per worker with no shared
// mutable state. The strips are SubRows views of one block view.
type PullSplit struct {
	Rows, Cols int64
	Offsets    []int64 // strip s covers rows [Offsets[s], Offsets[s+1])
	Strips     []*PullCSR
}

// PullScratch is the reusable per-rank working state of a PullSplit
// scan: one output vector and scanned-edge counter per strip. The zero
// value is ready to use and resizes lazily.
type PullScratch struct {
	parts   []spvec.Vec
	scanned []int64
}

func (psc *PullScratch) ensure(n int) {
	if len(psc.parts) < n {
		psc.parts = append(psc.parts, make([]spvec.Vec, n-len(psc.parts))...)
	}
	if len(psc.scanned) < n {
		psc.scanned = append(psc.scanned, make([]int64, n-len(psc.scanned))...)
	}
}

// Pull runs the bottom-up scan strip-parallel and concatenates the
// rebased per-strip candidates into dst (ascending block-local row
// order, like RowSplit.SpMSV). visRowOff is the global id of the block's
// first row; strip offsets are added internally. A non-nil pool runs one
// strip per worker; a nil psc allocates fresh scratch.
//
// colLo, the global id of the block's first column, is not read: the
// strips hold global ids. It stays in the signature because the
// benchmark's kernel replay (benchmark/layers.go) passes it.
func (ps *PullSplit) Pull(dst *spvec.Vec, frontier, visited *bits.Bitmap, visRowOff, colLo int64, pool *smp.Pool, psc *PullScratch) int64 {
	n := len(ps.Strips)
	if psc == nil {
		psc = &PullScratch{}
	}
	psc.ensure(n)
	run := func(s int) {
		psc.scanned[s] = ps.Strips[s].Pull(&psc.parts[s], frontier, visited, visRowOff+ps.Offsets[s])
	}
	pool.Do(n, run)
	dst.Reset()
	var scanned int64
	for s := 0; s < n; s++ {
		scanned += psc.scanned[s]
		off := ps.Offsets[s]
		for k, r := range psc.parts[s].Ind {
			dst.Ind = append(dst.Ind, r+off)
			dst.Val = append(dst.Val, psc.parts[s].Val[k])
		}
	}
	return scanned
}
