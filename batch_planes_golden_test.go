package pbfs

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// planesFingerprint renders FNV-1a of every distance plane and of every
// parent plane of a batch, searches in batch order, each entry as its
// eight little-endian bytes.
func planesFingerprint(res *BatchResult) string {
	dist, parent := fnv.New64a(), fnv.New64a()
	var buf [8]byte
	put := func(h interface{ Write([]byte) (int, error) }, plane []int64) {
		for _, x := range plane {
			for i := range buf {
				buf[i] = byte(uint64(x) >> (8 * i))
			}
			h.Write(buf[:])
		}
	}
	for _, r := range res.Results {
		put(dist, r.Dist)
		put(parent, r.Parent)
	}
	return fmt.Sprintf("dist=%016x parent=%016x", dist.Sum64(), parent.Sum64())
}

// TestBatchPlanesGolden pins the output planes of 1D and 2D batches bit
// for bit. Distances are fixed by BFS itself, but a batch's parents
// depend on the order discoveries are claimed in (first-wins per
// search), so this golden is what notices a reordered push, exchange or
// fold that still yields valid trees. Each batch repeats its first
// source at the end, so two searches share every frontier. The 2D rows
// run a rectangular (8 ranks) and a square (16 ranks) grid; their fold
// claims first-wins in row-rank order, which picks the lowest-id
// parent, so they match the 1D Auto rows. The comparators batch one
// search at a time and commit the first record per target after a sort
// by target, so their parents differ from the tuned codes' but not
// from each other's.
func TestBatchPlanesGolden(t *testing.T) {
	g, err := NewRMATGraph(12, 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	all := g.Sources(63, 11)
	golden := []struct {
		algo  Algorithm
		dir   Direction
		width int
		ranks int
		want  string
	}{
		{OneDFlat, TopDownOnly, 3, 7,
			"dist=0d45a2d6de470757 parent=b7e36b5d2ba3410a"},
		{OneDFlat, TopDownOnly, 3, 16,
			"dist=0d45a2d6de470757 parent=ff37b5fd7f0da217"},
		{OneDFlat, TopDownOnly, 64, 7,
			"dist=e6652d9617c540c5 parent=64652fba35a2bebb"},
		{OneDFlat, TopDownOnly, 64, 16,
			"dist=e6652d9617c540c5 parent=98181d423d9b2343"},
		{OneDFlat, Auto, 3, 7,
			"dist=0d45a2d6de470757 parent=787640d2f56669a3"},
		{OneDFlat, Auto, 3, 16,
			"dist=0d45a2d6de470757 parent=787640d2f56669a3"},
		{OneDFlat, Auto, 64, 7,
			"dist=e6652d9617c540c5 parent=75a5b062701da49c"},
		{OneDFlat, Auto, 64, 16,
			"dist=e6652d9617c540c5 parent=75a5b062701da49c"},
		{OneDHybrid, TopDownOnly, 3, 7,
			"dist=0d45a2d6de470757 parent=b7e36b5d2ba3410a"},
		{OneDHybrid, TopDownOnly, 3, 16,
			"dist=0d45a2d6de470757 parent=ff37b5fd7f0da217"},
		{OneDHybrid, TopDownOnly, 64, 7,
			"dist=e6652d9617c540c5 parent=64652fba35a2bebb"},
		{OneDHybrid, TopDownOnly, 64, 16,
			"dist=e6652d9617c540c5 parent=98181d423d9b2343"},
		{OneDHybrid, Auto, 3, 7,
			"dist=0d45a2d6de470757 parent=787640d2f56669a3"},
		{OneDHybrid, Auto, 3, 16,
			"dist=0d45a2d6de470757 parent=787640d2f56669a3"},
		{OneDHybrid, Auto, 64, 7,
			"dist=e6652d9617c540c5 parent=75a5b062701da49c"},
		{OneDHybrid, Auto, 64, 16,
			"dist=e6652d9617c540c5 parent=75a5b062701da49c"},
		{TwoDFlat, TopDownOnly, 3, 8,
			"dist=0d45a2d6de470757 parent=787640d2f56669a3"},
		{TwoDFlat, TopDownOnly, 3, 16,
			"dist=0d45a2d6de470757 parent=787640d2f56669a3"},
		{TwoDFlat, TopDownOnly, 64, 8,
			"dist=e6652d9617c540c5 parent=75a5b062701da49c"},
		{TwoDFlat, TopDownOnly, 64, 16,
			"dist=e6652d9617c540c5 parent=75a5b062701da49c"},
		{TwoDFlat, Auto, 3, 8,
			"dist=0d45a2d6de470757 parent=787640d2f56669a3"},
		{TwoDFlat, Auto, 3, 16,
			"dist=0d45a2d6de470757 parent=787640d2f56669a3"},
		{TwoDFlat, Auto, 64, 8,
			"dist=e6652d9617c540c5 parent=75a5b062701da49c"},
		{TwoDFlat, Auto, 64, 16,
			"dist=e6652d9617c540c5 parent=75a5b062701da49c"},
		{TwoDHybrid, TopDownOnly, 3, 8,
			"dist=0d45a2d6de470757 parent=787640d2f56669a3"},
		{TwoDHybrid, TopDownOnly, 3, 16,
			"dist=0d45a2d6de470757 parent=787640d2f56669a3"},
		{TwoDHybrid, TopDownOnly, 64, 8,
			"dist=e6652d9617c540c5 parent=75a5b062701da49c"},
		{TwoDHybrid, TopDownOnly, 64, 16,
			"dist=e6652d9617c540c5 parent=75a5b062701da49c"},
		{TwoDHybrid, Auto, 3, 8,
			"dist=0d45a2d6de470757 parent=787640d2f56669a3"},
		{TwoDHybrid, Auto, 3, 16,
			"dist=0d45a2d6de470757 parent=787640d2f56669a3"},
		{TwoDHybrid, Auto, 64, 8,
			"dist=e6652d9617c540c5 parent=75a5b062701da49c"},
		{TwoDHybrid, Auto, 64, 16,
			"dist=e6652d9617c540c5 parent=75a5b062701da49c"},
		{Reference, TopDownOnly, 3, 7,
			"dist=0d45a2d6de470757 parent=7760c20fec6ec618"},
		{Reference, TopDownOnly, 3, 16,
			"dist=0d45a2d6de470757 parent=eda44fa3c3b762be"},
		{PBGL, TopDownOnly, 3, 7,
			"dist=0d45a2d6de470757 parent=7760c20fec6ec618"},
		{PBGL, TopDownOnly, 3, 16,
			"dist=0d45a2d6de470757 parent=eda44fa3c3b762be"},
	}
	sess := NewSession()
	defer sess.Close()
	for _, gc := range golden {
		srcs := append(append([]int64(nil), all[:gc.width-1]...), all[0])
		opt := Options{Algorithm: gc.algo, Ranks: gc.ranks, Direction: gc.dir}
		res, err := sess.BFSBatch(g, srcs, opt)
		if err != nil {
			t.Fatal(err)
		}
		if got := planesFingerprint(res); got != gc.want {
			t.Errorf("%v/%v width=%d ranks=%d:\n got %s\nwant %s", gc.algo, gc.dir, gc.width, gc.ranks, got, gc.want)
		}
	}
}
