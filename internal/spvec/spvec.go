// Package spvec provides the sparse-vector machinery of the 2D BFS: the
// sorted sparse vector representing frontiers, the sparse accumulator
// (SPA) of Gilbert, Moler and Schreiber, and a multiway heap merge — the
// two local SpMSV accumulation kernels the paper compares in Figure 3.
//
// Values carry BFS parent candidates. Accumulation is over the paper's
// (select, max) semiring: when several frontier vertices discover the same
// output vertex, the one with the numerically largest value is selected.
// Any deterministic tie-break yields a valid BFS tree; max matches the
// paper's formulation.
package spvec

import (
	"cmp"
	"slices"
)

// Vec is a sparse vector with sorted, unique indices. Ind[i] is the
// position of the i-th nonzero; Val[i] its value. The zero value is an
// empty vector ready to use.
type Vec struct {
	Ind []int64
	Val []int64
}

// NNZ returns the number of nonzeros.
func (v *Vec) NNZ() int { return len(v.Ind) }

// Reset empties the vector, retaining capacity.
func (v *Vec) Reset() {
	v.Ind = v.Ind[:0]
	v.Val = v.Val[:0]
}

// Append adds a nonzero at index i with value val. Indices must be
// appended in strictly increasing order; Append panics otherwise, because
// a mis-ordered frontier silently corrupts every downstream merge.
func (v *Vec) Append(i, val int64) {
	if n := len(v.Ind); n > 0 && v.Ind[n-1] >= i {
		panic("spvec: Append indices not strictly increasing")
	}
	v.Ind = append(v.Ind, i)
	v.Val = append(v.Val, val)
}

// FromUnsorted builds a Vec from parallel unsorted index/value slices,
// sorting and collapsing duplicate indices with the (select,max) rule.
func FromUnsorted(ind, val []int64) *Vec {
	if len(ind) != len(val) {
		panic("spvec: index/value length mismatch")
	}
	type pair struct{ i, v int64 }
	ps := make([]pair, len(ind))
	for k := range ind {
		ps[k] = pair{ind[k], val[k]}
	}
	slices.SortFunc(ps, func(a, b pair) int {
		if c := cmp.Compare(a.i, b.i); c != 0 {
			return c
		}
		return cmp.Compare(b.v, a.v) // max value first within an index run
	})
	out := &Vec{Ind: make([]int64, 0, len(ps)), Val: make([]int64, 0, len(ps))}
	for k := 0; k < len(ps); k++ {
		if k > 0 && ps[k].i == ps[k-1].i {
			continue // duplicate index: first entry of the run holds max
		}
		out.Ind = append(out.Ind, ps[k].i)
		out.Val = append(out.Val, ps[k].v)
	}
	return out
}
