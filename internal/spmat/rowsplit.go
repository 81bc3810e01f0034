package spmat

import (
	"repro/internal/smp"
	"repro/internal/spvec"
)

// RowSplit partitions a DCSC rowwise into t strips, the layout the hybrid
// 2D algorithm uses for intra-node multithreading (Section 4.1, Figure 2):
// each thread owns an n/(pr·t) × n/pc hypersparse strip stored in its own
// DCSC, and a level's SpMSV runs one strip per thread with no shared
// mutable state. Strip outputs occupy disjoint, ordered row ranges, so the
// per-strip results concatenate into a sorted vector without a merge.
type RowSplit struct {
	Rows, Cols int64
	Strips     []*DCSC
	Offsets    []int64 // strip s covers rows [Offsets[s], Offsets[s+1])
}

// NewRowSplit builds a t-strip row split from triples.
func NewRowSplit(rows, cols int64, ts []Triple, t int) (*RowSplit, error) {
	if err := checkTriples(rows, cols, ts); err != nil {
		return nil, err
	}
	rs := &RowSplit{Rows: rows, Cols: cols, Offsets: stripOffsets(rows, t)}
	t = len(rs.Offsets) - 1
	buckets := make([][]Triple, t)
	for _, tr := range ts {
		s := rs.stripOf(tr.Row)
		buckets[s] = append(buckets[s], Triple{Row: tr.Row - rs.Offsets[s], Col: tr.Col})
	}
	rs.Strips = make([]*DCSC, t)
	for s := 0; s < t; s++ {
		d, err := NewDCSC(rs.Offsets[s+1]-rs.Offsets[s], cols, buckets[s])
		if err != nil {
			return nil, err
		}
		rs.Strips[s] = d
	}
	return rs, nil
}

// stripOffsets returns the row boundaries of a t-strip split of rows:
// t is raised to 1 and capped at a nonzero rows, so a strip is empty
// only when the whole split is.
func stripOffsets(rows int64, t int) []int64 {
	if t < 1 {
		t = 1
	}
	if int64(t) > rows && rows > 0 {
		t = int(rows)
	}
	offsets := make([]int64, t+1)
	for s := range offsets {
		offsets[s] = int64(s) * rows / int64(t)
	}
	return offsets
}

func (rs *RowSplit) stripOf(row int64) int {
	t := int64(len(rs.Offsets) - 1)
	s := row * t / rs.Rows
	// Integer division of uneven strips can land one off; fix up.
	for s > 0 && row < rs.Offsets[s] {
		s--
	}
	for s+1 < t && row >= rs.Offsets[s+1] {
		s++
	}
	return int(s)
}

// Work returns the number of nonzeros an SpMSV with frontier f would
// touch across all strips.
func (rs *RowSplit) Work(f *spvec.Vec) int64 {
	var work int64
	for _, s := range rs.Strips {
		work += s.Work(f)
	}
	return work
}

// NNZ returns the total stored nonzeros across strips.
func (rs *RowSplit) NNZ() int64 {
	var n int64
	for _, s := range rs.Strips {
		n += s.NNZ()
	}
	return n
}

// RowScratch is the reusable per-rank working state of a RowSplit SpMSV:
// one kernel Scratch and one output vector per strip. Strips own disjoint
// scratches, so the strip-parallel execution shares no mutable state —
// exactly the thread-local accumulators of the hybrid algorithm. The zero
// value is ready to use and resizes lazily to the strip count it meets.
type RowScratch struct {
	parts []spvec.Vec
	per   []Scratch
}

func (rsc *RowScratch) ensure(n int) {
	if len(rsc.parts) < n {
		rsc.parts = append(rsc.parts, make([]spvec.Vec, n-len(rsc.parts))...)
	}
	if len(rsc.per) < n {
		rsc.per = append(rsc.per, make([]Scratch, n-len(rsc.per))...)
	}
}

// SpMSV runs the product strip-parallel and concatenates the rebased
// outputs into dst. A non-nil pool executes one strip per worker — the
// hybrid algorithm's real intra-rank threads; a nil pool runs the strips
// serially (the flat algorithm, which still benefits from the strip
// layout's locality). A non-nil rsc makes steady-state calls
// allocation-free; opts.SPA and opts.Scratch apply per strip only when
// their accumulator matches the strip's row range.
func (rs *RowSplit) SpMSV(dst *spvec.Vec, f *spvec.Vec, opts SpMSVOpts, pool *smp.Pool, rsc *RowScratch) *spvec.Vec {
	n := len(rs.Strips)
	if rsc == nil {
		rsc = &RowScratch{}
	}
	rsc.ensure(n)
	parts := rsc.parts
	parallel := pool != nil && n > 1
	run := func(s int) {
		stripOpts := opts
		stripOpts.Scratch = &rsc.per[s]
		// A caller-provided SPA can serve at most one strip at a time and
		// only if it spans the strip's rows; concurrent strips always use
		// their own scratch accumulators.
		if stripOpts.SPA != nil && (parallel || stripOpts.SPA.Size() != rs.Strips[s].Rows) {
			stripOpts.SPA = nil
		}
		rs.Strips[s].SpMSV(&parts[s], f, stripOpts)
	}
	if parallel {
		pool.Do(n, run)
	} else {
		for s := 0; s < n; s++ {
			run(s)
		}
	}
	dst.Reset()
	for s := range parts[:n] {
		off := rs.Offsets[s]
		for k, r := range parts[s].Ind {
			dst.Ind = append(dst.Ind, r+off)
			dst.Val = append(dst.Val, parts[s].Val[k])
		}
	}
	return dst
}
