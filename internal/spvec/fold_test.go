package spvec

import (
	"testing"
	"testing/quick"

	"repro/internal/prng"
)

// foldOracle reproduces FoldMerge's contract through the independent
// concat-and-sort path it replaced.
func foldOracle(pieces [][]int64, sub int64) *Vec {
	var ind, val []int64
	for _, p := range pieces {
		for k := 0; k+1 < len(p); k += 2 {
			ind = append(ind, p[k]-sub)
			val = append(val, p[k+1])
		}
	}
	return FromUnsorted(ind, val)
}

// randomPieces builds k sorted pair-encoded pieces over a shared index
// range, deliberately heavy with cross-piece index collisions (the
// duplicate-discovery pattern of real fold rounds).
func randomPieces(rng *prng.Xoshiro256, k int, idxRange int64) [][]int64 {
	pieces := make([][]int64, k)
	for s := 0; s < k; s++ {
		n := rng.Int64n(idxRange + 1)
		var piece []int64
		idx := int64(-1)
		for i := int64(0); i < n; i++ {
			idx += 1 + rng.Int64n(3) // small strides force collisions
			if idx >= idxRange {
				break
			}
			piece = append(piece, idx, rng.Int64n(1000)-500)
		}
		pieces[s] = piece
	}
	return pieces
}

func vecsEqual(a, b *Vec) bool {
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

func TestFoldMergeMatchesFromUnsorted(t *testing.T) {
	var sc MergeScratch
	var dst Vec
	check := func(seed uint64) bool {
		rng := prng.New(seed)
		k := rng.Intn(9) + 1
		pieces := randomPieces(rng, k, rng.Int64n(60)+1)
		sub := rng.Int64n(10)
		FoldMerge(&dst, pieces, sub, &sc)
		return vecsEqual(&dst, foldOracle(pieces, sub))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFoldMergeEdgeCases(t *testing.T) {
	var dst Vec
	// No pieces, empty pieces, and a nil scratch all work.
	if FoldMerge(&dst, nil, 0, nil).NNZ() != 0 {
		t.Error("merge of nothing not empty")
	}
	if FoldMerge(&dst, [][]int64{{}, nil, {}}, 0, nil).NNZ() != 0 {
		t.Error("merge of empty pieces not empty")
	}
	// A dangling odd word is ignored, as in the BFS unpack loops.
	FoldMerge(&dst, [][]int64{{5, 7, 9}}, 0, nil)
	if dst.NNZ() != 1 || dst.Ind[0] != 5 || dst.Val[0] != 7 {
		t.Errorf("dangling word mishandled: %v %v", dst.Ind, dst.Val)
	}
	// Collisions resolve to the max value; sub rebases indices.
	FoldMerge(&dst, [][]int64{{10, 1, 12, 9}, {10, 4}, {10, 2, 11, -3}}, 10, nil)
	wantInd := []int64{0, 1, 2}
	wantVal := []int64{4, -3, 9}
	if !vecsEqual(&dst, &Vec{Ind: wantInd, Val: wantVal}) {
		t.Errorf("got %v %v, want %v %v", dst.Ind, dst.Val, wantInd, wantVal)
	}
}

func TestFoldMergeScratchReuse(t *testing.T) {
	// Steady-state reuse must keep results correct after the heap has
	// grown and shrunk across differently shaped rounds.
	var sc MergeScratch
	var dst Vec
	rng := prng.New(0xfade)
	for round := 0; round < 50; round++ {
		pieces := randomPieces(rng, rng.Intn(16)+1, 40)
		FoldMerge(&dst, pieces, 0, &sc)
		if !vecsEqual(&dst, foldOracle(pieces, 0)) {
			t.Fatalf("round %d: scratch reuse corrupted merge", round)
		}
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
		if !vecsEqual(&got, FromUnsorted(ind, val)) {
			t.Fatalf("round %d: scratch merge mismatch", round)
		}
	}
}
