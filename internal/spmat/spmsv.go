package spmat

import (
	"slices"

	"repro/internal/spvec"
)

// Kernel selects the accumulation strategy for SpMSV.
type Kernel int

const (
	// KernelSPA uses the sparse accumulator: O(rows) memory, fastest at
	// low concurrency.
	KernelSPA Kernel = iota
	// KernelHeap uses the multiway heap merge: O(nnz(f)+output) memory,
	// faster and leaner once blocks become hypersparse (high concurrency).
	KernelHeap
	// KernelAuto is the paper's polyalgorithm: pick per call based on the
	// ratio of the accumulator range to the expected output size.
	KernelAuto
)

// String returns the kernel name.
func (k Kernel) String() string {
	switch k {
	case KernelSPA:
		return "spa"
	case KernelHeap:
		return "heap"
	case KernelAuto:
		return "auto"
	}
	return "unknown"
}

// autoThreshold is the range-to-work ratio above which the polyalgorithm
// prefers the heap kernel: when the SPA's dense range is much larger than
// the touched volume, SPA initialization/extraction and its cache
// footprint dominate. The value is calibrated by BenchmarkFigure3 and
// corresponds to the paper's observed crossover near 10k cores on a scale
// 33 problem.
const autoThreshold = 64

// SpMSVOpts configures a product.
type SpMSVOpts struct {
	Kernel Kernel
	// Scratch, when non-nil, pools every per-call working structure (the
	// column join's stream list, the SPA, the heap kernel's cursor heap)
	// so steady-state calls allocate nothing. One Scratch serves one
	// matrix at a time; it resizes itself lazily to the matrix it meets.
	Scratch *Scratch
}

// Scratch is the reusable working state of the SpMSV kernels. The zero
// value is ready to use.
type Scratch struct {
	spa     *spvec.SPA
	streams []spvec.Stream
	merge   spvec.MergeScratch
}

// spaFor returns a reusable SPA for a matrix with the given row count,
// (re)allocating only when the row range changes.
func (sc *Scratch) spaFor(rows int64) *spvec.SPA {
	if sc.spa == nil || sc.spa.Size() != rows {
		sc.spa = spvec.NewSPA(rows)
	}
	return sc.spa
}

// SpMSV computes dst = M ⊗ f over the (select,max) semiring: for every
// row r such that some column c with f(c) nonzero has an entry (r,c),
// dst(r) = max over those columns of f's value at c. In BFS terms: f is
// the frontier (value = the frontier vertex's global id), dst holds the
// newly reachable rows with their tentative parents. It returns the
// product's work, the number of matrix nonzeros it touched (Work(f)).
//
// The frontier joins the block's columns once: each selected column
// becomes a stream of its rows carrying the frontier value, and the
// streams' total length is both the returned work and KernelAuto's
// estimate of the touched volume. The SPA kernel then scatters each
// stream's rows in one loop; the heap kernel merges the streams.
func (m *DCSC) SpMSV(dst *spvec.Vec, f *spvec.Vec, opts SpMSVOpts) int64 {
	sc := opts.Scratch
	if sc == nil {
		sc = &Scratch{}
	}
	streams := sc.streams[:0]
	var work int64
	selectColumns(m.JC, f.Ind, func(i, j int) {
		rows := m.colRowsAt(j)
		work += int64(len(rows))
		streams = append(streams, spvec.Stream{Ind: rows, Val: f.Val[i]})
	})
	sc.streams = streams[:0]
	kernel := opts.Kernel
	if kernel == KernelAuto {
		if work == 0 {
			dst.Reset()
			return 0
		}
		if m.Rows/work >= autoThreshold {
			kernel = KernelHeap
		} else {
			kernel = KernelSPA
		}
	}
	switch kernel {
	case KernelSPA:
		spa := sc.spaFor(m.Rows)
		for _, s := range streams {
			spa.ScatterRows(s.Ind, s.Val)
		}
		spa.Extract(dst)
	case KernelHeap:
		spvec.MultiwayMergeWith(dst, streams, &sc.merge)
	default:
		panic("spmat: unknown kernel")
	}
	return work
}

// Scatter accumulates M ⊗ f into spa, whose size must be the row count,
// without extracting: the SPA kernel's first half.
func (m *DCSC) Scatter(spa *spvec.SPA, f *spvec.Vec) {
	selectColumns(m.JC, f.Ind, func(i, j int) {
		spa.ScatterRows(m.colRowsAt(j), f.Val[i])
	})
}

// Work returns the number of matrix nonzeros an SpMSV with frontier f
// would touch (the sum of selected column lengths). The performance model
// charges local computation proportionally to this quantity.
func (m *DCSC) Work(f *spvec.Vec) int64 {
	var work int64
	selectColumns(m.JC, f.Ind, func(_, j int) {
		work += m.CP[j+1] - m.CP[j]
	})
	return work
}

// selectColumns joins a frontier's indices ind with a block's nonempty
// columns jc, both strictly ascending, and calls fn(i, j) for every
// ind[i] == jc[j] in ascending order. It is the column selection of every
// top-down kernel, single and batched. Whichever list is behind gallops to
// the other's current value, so skipping d entries costs O(log d)
// comparisons: a frontier of f entries against nzc columns costs
// O(f·log(nzc/f)) when f ≪ nzc, and never more than a constant times the
// O(f + nzc) merge-join when the two interleave.
func selectColumns(jc, ind []int64, fn func(i, j int)) {
	i, j := 0, 0
	for i < len(ind) && j < len(jc) {
		switch {
		case ind[i] < jc[j]:
			i = gallop(ind, i+1, jc[j])
		case ind[i] > jc[j]:
			j = gallop(jc, j+1, ind[i])
		default:
			fn(i, j)
			i++
			j++
		}
	}
}

// gallop returns the first position k ≥ lo with s[k] ≥ x, or len(s) if
// there is none, for ascending s. It probes lo, lo+1, lo+3, lo+7, … until
// a probe reaches x, then binary-searches the gap the last probe closed.
func gallop(s []int64, lo int, x int64) int {
	hi, step := lo, 1
	for hi < len(s) && s[hi] < x {
		lo = hi + 1
		hi += step
		step <<= 1
	}
	hi = min(hi, len(s))
	k, _ := slices.BinarySearch(s[lo:hi], x)
	return lo + k
}
