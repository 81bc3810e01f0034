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
// the first frontier parent instead of streaming every edge. RowPtr
// values are absolute offsets into ColInd, which lets sub-views for
// thread chunks alias the same arrays (RowPtr[lo:hi+1] with the full
// ColInd). Column ids are uint32, widened on read: block-local ids for
// a 2D block, global ids for the 1D driver's wrapped CSR.
type PullCSR struct {
	Rows, Cols int64
	RowPtr     []int64  // len Rows+1, absolute offsets into ColInd
	ColInd     []uint32 // column ids, ascending within each row
}

// NewPullCSR wraps existing CSR arrays without copying. The 1D driver
// uses it to present its local in-adjacency to the shared pull kernel.
func NewPullCSR(rows, cols int64, rowPtr []int64, colInd []uint32) *PullCSR {
	return &PullCSR{Rows: rows, Cols: cols, RowPtr: rowPtr, ColInd: colInd}
}

// SubRows returns a view over rows [lo, hi) sharing the receiver's
// storage; emitted row ids are relative to lo.
func (m *PullCSR) SubRows(lo, hi int64) *PullCSR {
	return &PullCSR{Rows: hi - lo, Cols: m.Cols, RowPtr: m.RowPtr[lo : hi+1], ColInd: m.ColInd}
}

// PullView builds the row-major companion of a DCSC block: a counting
// sort of its entries by row. Column ids come out ascending within each
// row because JC is scanned in ascending order, preserving the
// deterministic first-parent tie-break of the pull scan.
func (m *DCSC) PullView() *PullCSR {
	rowPtr := make([]int64, m.Rows+1)
	for _, r := range m.IR {
		rowPtr[r+1]++
	}
	for r := int64(0); r < m.Rows; r++ {
		rowPtr[r+1] += rowPtr[r]
	}
	colInd := make([]uint32, len(m.IR))
	cursor := make([]int64, m.Rows)
	copy(cursor, rowPtr[:m.Rows])
	for j := range m.JC {
		c := uint32(m.JC[j])
		for _, r := range m.colRowsAt(j) {
			colInd[cursor[r]] = c
			cursor[r]++
		}
	}
	return &PullCSR{Rows: m.Rows, Cols: m.Cols, RowPtr: rowPtr, ColInd: colInd}
}

// Pull runs one bottom-up scan over the block: every row whose global id
// (visRowOff + local row) is clear in visited has its columns scanned in
// ascending order; the first column whose global id (colOff + local
// column) is set in frontier becomes the row's parent candidate, and the
// scan of that row stops (the bottom-up early exit). dst receives
// (local row, global parent id) pairs in ascending row order. The
// returned count is the number of adjacency entries examined — the
// quantity the direction-optimizing heuristic saves.
//
// visited is read 64 rows at a time, so the scan costs O(Rows/64) word
// reads plus the unvisited rows' entries up to each early exit: fully
// visited spans cost one word each, whatever visRowOff's alignment.
func (m *PullCSR) Pull(dst *spvec.Vec, frontier, visited *bits.Bitmap, visRowOff, colOff int64) int64 {
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
			for k := m.RowPtr[rl]; k < m.RowPtr[rl+1]; k++ {
				scanned++
				c := colOff + int64(m.ColInd[k])
				if frontier.Get(c) {
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
// mutable state.
type PullSplit struct {
	Rows, Cols int64
	Offsets    []int64 // strip s covers rows [Offsets[s], Offsets[s+1])
	Strips     []*PullCSR
}

// PullView builds the row-major views of every strip.
func (rs *RowSplit) PullView() *PullSplit {
	ps := &PullSplit{Rows: rs.Rows, Cols: rs.Cols, Offsets: rs.Offsets}
	ps.Strips = make([]*PullCSR, len(rs.Strips))
	for s, d := range rs.Strips {
		ps.Strips[s] = d.PullView()
	}
	return ps
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
func (ps *PullSplit) Pull(dst *spvec.Vec, frontier, visited *bits.Bitmap, visRowOff, colOff int64, pool *smp.Pool, psc *PullScratch) int64 {
	n := len(ps.Strips)
	if psc == nil {
		psc = &PullScratch{}
	}
	psc.ensure(n)
	run := func(s int) {
		psc.scanned[s] = ps.Strips[s].Pull(&psc.parts[s], frontier, visited,
			visRowOff+ps.Offsets[s], colOff)
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
