package spmat

import (
	"repro/internal/smp"
	"repro/internal/spvec"
)

// Bit-parallel multi-source kernels (MS-BFS): up to 64 concurrent
// searches share one adjacency scan by carrying a uint64 "active in
// search k" mask per frontier entry / per vertex. One pass over the
// CSR advances every search in the batch, and first-visit resolution is
// atomic-free mask diffing (new = mask &^ visited), so the batched
// kernels cost one edge scan where 64 sequential searches cost 64.

// MaskScratch is the reusable working state of a batched SpMSV: a dense
// accumulated-mask plane over the matrix rows plus the list of touched
// rows, cleared per call in O(touched). The zero value is ready to use
// and resizes lazily to the matrix it meets.
type MaskScratch struct {
	acc     []uint64
	touched []uint32
}

func (sc *MaskScratch) accFor(rows int64) []uint64 {
	if int64(len(sc.acc)) != rows {
		sc.acc = make([]uint64, rows)
	}
	return sc.acc
}

// SpMSVMasks computes the batched top-down product: for every frontier
// column c active in searches mask(c), every stored row r of c is
// discovered in the searches not yet accumulated for r this level
// (add = mask(c) &^ acc[r]), and dst receives one (row, add, parent)
// triple per claiming column. Column order fixes the winning parent
// deterministically (ascending frontier index, the order selectColumns
// visits matches in). dst is unsorted by row — the batched fold's
// first-wins merge needs no ordering — and entries never carry a zero
// mask. Local
// duplicate discoveries collapse here, before the fold exchange, the
// same in-node aggregation the scalar SPA performs. It returns the
// product's work: the sum of selected column lengths, counted once for
// the whole batch — the shared-scan quantity the performance model and
// the machine-TEPS accounting charge.
func (m *DCSC) SpMSVMasks(dst *spvec.MaskVec, f *spvec.MaskVec, sc *MaskScratch) int64 {
	dst.Reset()
	if sc == nil {
		sc = &MaskScratch{}
	}
	acc := sc.accFor(m.Rows)
	var work int64
	selectColumns(m.JC, f.Ind, func(i, j int) {
		mask := f.Mask[i]
		rows := m.colRowsAt(j)
		work += int64(len(rows))
		for _, r := range rows {
			if add := mask &^ acc[r]; add != 0 {
				if acc[r] == 0 {
					sc.touched = append(sc.touched, r)
				}
				acc[r] |= add
				dst.Append(int64(r), add, f.Par[i])
			}
		}
	})
	for _, r := range sc.touched {
		acc[r] = 0
	}
	sc.touched = sc.touched[:0]
	return work
}

// MaskRowScratch is the reusable per-rank working state of a strip-
// parallel batched SpMSV: one output vector, one mask accumulator and
// one work count per strip, so concurrent strips share no mutable state.
// The zero value is ready to use and resizes lazily.
type MaskRowScratch struct {
	parts []spvec.MaskVec
	per   []MaskScratch
	work  []int64
}

func (msc *MaskRowScratch) ensure(n int) {
	if len(msc.parts) < n {
		msc.parts = append(msc.parts, make([]spvec.MaskVec, n-len(msc.parts))...)
	}
	if len(msc.per) < n {
		msc.per = append(msc.per, make([]MaskScratch, n-len(msc.per))...)
	}
	if len(msc.work) < n {
		msc.work = append(msc.work, make([]int64, n-len(msc.work))...)
	}
}

// SpMSVMasks runs the batched product strip-parallel and concatenates
// the rebased outputs into dst in strip order. Strips cover disjoint row
// ranges, so the concatenation introduces no cross-strip duplicates and
// the result is deterministic regardless of worker scheduling. It
// returns the work summed over the strips. A one-strip split writes its
// product straight into dst. A nil pool runs the strips serially; a nil
// msc allocates fresh scratch.
func (rs *RowSplit) SpMSVMasks(dst *spvec.MaskVec, f *spvec.MaskVec, pool *smp.Pool, msc *MaskRowScratch) int64 {
	n := len(rs.Strips)
	if msc == nil {
		msc = &MaskRowScratch{}
	}
	msc.ensure(n)
	if n == 1 {
		return rs.Strips[0].SpMSVMasks(dst, f, &msc.per[0])
	}
	run := func(s int) {
		msc.work[s] = rs.Strips[s].SpMSVMasks(&msc.parts[s], f, &msc.per[s])
	}
	pool.Do(n, run)
	dst.Reset()
	var work int64
	for s := 0; s < n; s++ {
		work += msc.work[s]
		off := rs.Offsets[s]
		p := &msc.parts[s]
		for k, r := range p.Ind {
			dst.Append(r+off, p.Mask[k], p.Par[k])
		}
	}
	return work
}

// PullMasks runs one batched bottom-up scan over the block: frontier and
// visited are mask planes (one uint64 per vertex; frontier indexed by
// global column id, visited by global row id), and active holds the
// searches still running. A row is scanned only while some active search
// has not visited it (cand = active &^ visited[row]); each adjacency
// entry resolves every candidate search whose frontier holds that column
// in one AND (hit = cand & frontier[c]), emitting (local row, hit,
// column) and shrinking cand until the row's scan stops early — the
// batched generalization of the scalar pull's first-parent exit, and
// per-search it picks the same ascending-first parent. The returned
// count is adjacency entries examined, counted once for the whole batch.
func (m *PullCSR) PullMasks(dst *spvec.MaskVec, frontier, visited []uint64, active uint64, visRowOff int64) int64 {
	dst.Reset()
	var scanned int64
	for rl := int64(0); rl < m.Rows; rl++ {
		cand := active &^ visited[visRowOff+rl]
		if cand == 0 {
			continue
		}
		for _, id := range m.Adj[m.Beg[rl]:m.End[rl]] {
			scanned++
			c := int64(id)
			if hit := cand & frontier[c]; hit != 0 {
				dst.Append(rl, hit, c)
				cand &^= hit
				if cand == 0 {
					break
				}
			}
		}
	}
	return scanned
}

// MaskPullScratch is the reusable per-rank working state of a strip-
// parallel batched pull. The zero value is ready to use.
type MaskPullScratch struct {
	parts   []spvec.MaskVec
	scanned []int64
}

func (psc *MaskPullScratch) ensure(n int) {
	if len(psc.parts) < n {
		psc.parts = append(psc.parts, make([]spvec.MaskVec, n-len(psc.parts))...)
	}
	if len(psc.scanned) < n {
		psc.scanned = append(psc.scanned, make([]int64, n-len(psc.scanned))...)
	}
}

// PullMasks runs the batched bottom-up scan strip-parallel and
// concatenates the rebased per-strip candidates into dst in strip order
// (ascending block-local row order, one or more entries per row).
// visRowOff is the global id of the block's first row; strip offsets are
// added internally.
func (ps *PullSplit) PullMasks(dst *spvec.MaskVec, frontier, visited []uint64, active uint64, visRowOff int64, pool *smp.Pool, psc *MaskPullScratch) int64 {
	n := len(ps.Strips)
	if psc == nil {
		psc = &MaskPullScratch{}
	}
	psc.ensure(n)
	run := func(s int) {
		psc.scanned[s] = ps.Strips[s].PullMasks(&psc.parts[s], frontier, visited,
			active, visRowOff+ps.Offsets[s])
	}
	pool.Do(n, run)
	dst.Reset()
	var scanned int64
	for s := 0; s < n; s++ {
		scanned += psc.scanned[s]
		off := ps.Offsets[s]
		p := &psc.parts[s]
		for k, r := range p.Ind {
			dst.Append(r+off, p.Mask[k], p.Par[k])
		}
	}
	return scanned
}
