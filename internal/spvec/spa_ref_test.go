package spvec

import (
	mbits "math/bits"
	"testing"

	"repro/internal/prng"
)

// TestExtractMatchesSortedReference fills two SPAs with the same scatters
// and extracts one with Extract and the other with ExtractSorted, the
// sort-only form, at fill levels on both sides of Extract's walk threshold
// (k·bits.Len(k) ≥ words) and over ranges that do and do not end on a
// word boundary. Both outputs must be equal, the SPA must come back clean
// (no occupied bit, empty index list), and a second round of scatters
// must extract to exactly what a fresh SPA extracts from that round
// alone.
func TestExtractMatchesSortedReference(t *testing.T) {
	rng := prng.New(0xe8)
	walked, sorted := 0, 0
	for _, size := range []int64{1, 63, 64, 65, 200, 4096} {
		words := int((size + 63) / 64)
		for _, k := range []int{0, 1, 2, 5, 15, 16, 17, 40, int(size / 2), int(size)} {
			if int64(k) > size {
				continue
			}
			s, ref := NewSPA(size), NewSPA(size)
			for round := 0; round < 2; round++ {
				fresh := NewSPA(size)
				for _, i := range rng.Perm(size)[:k] {
					// Two scatters per slot, so the max rule is exercised.
					for rep := 0; rep < 2; rep++ {
						v := rng.Int64n(1000)
						s.Scatter(i, v)
						ref.Scatter(i, v)
						fresh.Scatter(i, v)
					}
				}
				if k*mbits.Len(uint(k)) >= words {
					walked++
				} else {
					sorted++
				}
				got := s.Extract(&Vec{})
				want := ref.ExtractSorted(&Vec{})
				if !equalVec(got, want) {
					t.Fatalf("size %d k %d round %d: Extract %v/%v, reference %v/%v",
						size, k, round, got.Ind, got.Val, want.Ind, want.Val)
				}
				if !equalVec(got, fresh.ExtractSorted(&Vec{})) {
					t.Fatalf("size %d k %d round %d: Extract kept an earlier round's entries", size, k, round)
				}
				if len(s.inds) != 0 || s.occupied.Count() != 0 {
					t.Fatalf("size %d k %d round %d: SPA not clean after Extract", size, k, round)
				}
			}
		}
	}
	if walked == 0 || sorted == 0 {
		t.Fatalf("threshold not straddled: %d walked, %d sorted extractions", walked, sorted)
	}
}

// TestScatterRowsMatchesScatter fills one SPA through ScatterRows and
// another through per-index Scatter with the same runs (sorted row lists
// that overlap, so slots are hit again with lower and higher values),
// over ranges that do and do not end on a word boundary; both must
// extract the same vector and come back clean for the next round.
func TestScatterRowsMatchesScatter(t *testing.T) {
	rng := prng.New(0x5ca7)
	for _, size := range []int64{1, 63, 64, 65, 200, 4096} {
		s, ref := NewSPA(size), NewSPA(size)
		for round := 0; round < 3; round++ {
			for run := rng.Intn(12); run > 0; run-- {
				var rows []uint32
				for i := int64(0); i < size; i++ {
					if rng.Intn(8) == 0 {
						rows = append(rows, uint32(i))
					}
				}
				val := rng.Int64n(1000)
				s.ScatterRows(rows, val)
				for _, r := range rows {
					ref.Scatter(int64(r), val)
				}
			}
			if len(s.inds) != len(ref.inds) {
				t.Fatalf("size %d round %d: %d occupied, per-index %d", size, round, len(s.inds), len(ref.inds))
			}
			got, want := s.Extract(&Vec{}), ref.Extract(&Vec{})
			if !equalVec(got, want) {
				t.Fatalf("size %d round %d: ScatterRows %v/%v, Scatter %v/%v",
					size, round, got.Ind, got.Val, want.Ind, want.Val)
			}
			if len(s.inds) != 0 || s.occupied.Count() != 0 {
				t.Fatalf("size %d round %d: SPA not clean after Extract", size, round)
			}
		}
	}
}
