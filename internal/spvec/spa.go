package spvec

import (
	mbits "math/bits"
	"slices"

	"repro/internal/bits"
)

// SPA is the sparse accumulator of Section 4.2: a dense value array, a bit
// mask of occupied slots, and a list of occupied indices. Scatters are
// O(1); extraction sorts the index list, or walks the occupied bitmap
// when that is cheaper (see Extract). Memory footprint is O(range),
// which is exactly the disadvantage the paper measures against the heap
// kernel in Figure 3.
type SPA struct {
	vals     []int64
	occupied *bits.Bitmap
	inds     []int64
}

// NewSPA returns a SPA over index range [0, size).
func NewSPA(size int64) *SPA {
	return &SPA{
		vals:     make([]int64, size),
		occupied: bits.NewBitmap(size),
		inds:     make([]int64, 0, 256),
	}
}

// Size returns the index range of the accumulator.
func (s *SPA) Size() int64 { return int64(len(s.vals)) }

// Scatter accumulates value val at index i under the (select,max)
// semiring.
func (s *SPA) Scatter(i, val int64) {
	if s.occupied.TestAndSet(i) {
		s.inds = append(s.inds, i)
		s.vals[i] = val
		return
	}
	if val > s.vals[i] {
		s.vals[i] = val
	}
}

// ScatterRows is Scatter(int64(r), val) for every r in rows, in one loop
// over the occupied words and vals: the SPA kernel's inner loop over a
// selected column's rows, with no call per entry.
func (s *SPA) ScatterRows(rows []uint32, val int64) {
	words, vals, inds := s.occupied.Words(), s.vals, s.inds
	for _, r := range rows {
		w, bit := r/64, uint64(1)<<(r%64)
		if words[w]&bit == 0 {
			words[w] |= bit
			inds = append(inds, int64(r))
			vals[r] = val
		} else if val > vals[r] {
			vals[r] = val
		}
	}
	s.inds = inds
}

// Extract appends the accumulated nonzeros, index-sorted, into dst and
// resets the SPA for reuse. With k occupied slots over a W-word occupied
// bitmap it costs O(min(k·log k, W+k)): a sparse fill sorts the index list,
// the extraction cost the paper notes for the SPA approach, while a fill
// with k·bits.Len(k) ≥ W walks the bitmap's words in ascending order
// instead, emitting each set bit and zeroing each word as it goes.
func (s *SPA) Extract(dst *Vec) *Vec {
	k := len(s.inds)
	words := s.occupied.Words()
	if k*mbits.Len(uint(k)) < len(words) {
		return s.ExtractSorted(dst)
	}
	dst.Reset()
	// The walk stops once all k slots are out, skipping the tail.
	for w := 0; len(dst.Ind) < k; w++ {
		word := words[w]
		words[w] = 0
		for ; word != 0; word &= word - 1 {
			i := int64(w)*64 + int64(mbits.TrailingZeros64(word))
			dst.Ind = append(dst.Ind, i)
			dst.Val = append(dst.Val, s.vals[i])
		}
	}
	s.inds = s.inds[:0]
	return dst
}

// ExtractSorted is Extract by sorting the index list whatever the fill:
// the paper's SPA extraction. Extract takes this path for sparse fills;
// the Figure 3 reproduction takes it always, to measure the paper's
// kernel.
func (s *SPA) ExtractSorted(dst *Vec) *Vec {
	slices.Sort(s.inds)
	dst.Reset()
	for _, i := range s.inds {
		dst.Ind = append(dst.Ind, i)
		dst.Val = append(dst.Val, s.vals[i])
		s.occupied.Clear(i)
	}
	s.inds = s.inds[:0]
	return dst
}
