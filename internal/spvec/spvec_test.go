package spvec

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/prng"
)

func vecOf(pairs ...[2]int64) *Vec {
	v := &Vec{}
	for _, p := range pairs {
		v.Append(p[0], p[1])
	}
	return v
}

func equalVec(a, b *Vec) bool {
	if len(a.Ind) != len(b.Ind) {
		return false
	}
	for i := range a.Ind {
		if a.Ind[i] != b.Ind[i] || a.Val[i] != b.Val[i] {
			return false
		}
	}
	return true
}

func TestAppendOrderEnforced(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-order Append did not panic")
		}
	}()
	v := &Vec{}
	v.Append(5, 1)
	v.Append(5, 2)
}

func TestFromUnsorted(t *testing.T) {
	v := FromUnsorted([]int64{7, 2, 7, 5, 2}, []int64{10, 3, 40, 5, 1})
	want := vecOf([2]int64{2, 3}, [2]int64{5, 5}, [2]int64{7, 40})
	if !equalVec(v, want) {
		t.Errorf("FromUnsorted = %v/%v", v.Ind, v.Val)
	}
}

func TestSPABasic(t *testing.T) {
	s := NewSPA(100)
	s.Scatter(42, 7)
	s.Scatter(5, 1)
	s.Scatter(42, 3)  // lower value loses
	s.Scatter(42, 11) // higher value wins
	out := s.Extract(&Vec{})
	want := vecOf([2]int64{5, 1}, [2]int64{42, 11})
	if !equalVec(out, want) {
		t.Errorf("Extract = %v/%v", out.Ind, out.Val)
	}
	if len(s.inds) != 0 {
		t.Error("SPA not reset after Extract")
	}
	// Reusable after extraction.
	s.Scatter(1, 2)
	out = s.Extract(&Vec{})
	if !equalVec(out, vecOf([2]int64{1, 2})) {
		t.Errorf("second Extract = %v/%v", out.Ind, out.Val)
	}
}

func TestMultiwayMergeBasic(t *testing.T) {
	streams := []Stream{
		{Ind: []uint32{1, 4, 9}, Val: 100},
		{Ind: []uint32{2, 4, 8}, Val: 200},
		{Ind: []uint32{4, 9}, Val: 50},
	}
	got := MultiwayMergeWith(&Vec{}, streams, nil)
	want := vecOf([2]int64{1, 100}, [2]int64{2, 200}, [2]int64{4, 200},
		[2]int64{8, 200}, [2]int64{9, 100})
	if !equalVec(got, want) {
		t.Errorf("MultiwayMergeWith = %v/%v", got.Ind, got.Val)
	}
}

func TestMultiwayMergeDegenerate(t *testing.T) {
	if got := MultiwayMergeWith(&Vec{}, nil, nil); got.NNZ() != 0 {
		t.Error("merge of no streams non-empty")
	}
	if got := MultiwayMergeWith(&Vec{}, []Stream{{}, {}}, nil); got.NNZ() != 0 {
		t.Error("merge of empty streams non-empty")
	}
	one := MultiwayMergeWith(&Vec{}, []Stream{{Ind: []uint32{3, 7}, Val: 9}}, nil)
	if !equalVec(one, vecOf([2]int64{3, 9}, [2]int64{7, 9})) {
		t.Errorf("single-stream merge = %v/%v", one.Ind, one.Val)
	}
}

// Property: SPA and the heap merge compute the same accumulation.
func TestSPAHeapAgree(t *testing.T) {
	check := func(seed uint64) bool {
		rng := prng.New(seed)
		const size = 200
		k := rng.Intn(10) + 1
		streams := make([]Stream, k)
		spa := NewSPA(size)
		for s := 0; s < k; s++ {
			m := rng.Intn(30)
			set := map[int64]bool{}
			for i := 0; i < m; i++ {
				set[rng.Int64n(size)] = true
			}
			ind := make([]uint32, 0, len(set))
			for i := int64(0); i < size; i++ {
				if set[i] {
					ind = append(ind, uint32(i))
				}
			}
			val := rng.Int64n(1000)
			streams[s] = Stream{Ind: ind, Val: val}
			for _, i := range ind {
				spa.Scatter(int64(i), val)
			}
		}
		a := spa.Extract(&Vec{})
		b := MultiwayMergeWith(&Vec{}, streams, nil)
		return equalVec(a, b)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestMultiwayMergeWithScratch(t *testing.T) {
	var sc MergeScratch
	rng := prng.New(0xbeef)
	for round := 0; round < 30; round++ {
		k := rng.Intn(8) + 1
		streams := make([]Stream, k)
		var ind, val []int64
		for s := 0; s < k; s++ {
			n := rng.Int64n(20)
			var sInd []uint32
			idx := int64(-1)
			for i := int64(0); i < n; i++ {
				idx += 1 + rng.Int64n(4)
				sInd = append(sInd, uint32(idx))
			}
			v := rng.Int64n(100)
			streams[s] = Stream{Ind: sInd, Val: v}
			for _, i := range sInd {
				ind = append(ind, int64(i))
				val = append(val, v)
			}
		}
		var got Vec
		MultiwayMergeWith(&got, streams, &sc)
		want := FromUnsorted(ind, val)
		if !slices.Equal(got.Ind, want.Ind) || !slices.Equal(got.Val, want.Val) {
			t.Fatalf("round %d: scratch merge mismatch", round)
		}
	}
}
