package pbfs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
)

// simFingerprint renders a run's simulated clock bit-exactly: the
// IEEE-754 bits of the total simulated time and of every per-tag
// communication time (in sorted tag order), plus the scanned-edge
// counters.
func simFingerprint(sim float64, phases map[string]float64, td, bu int64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim=%016x td=%d bu=%d", math.Float64bits(sim), td, bu)
	tags := make([]string, 0, len(phases))
	for tag := range phases {
		tags = append(tags, tag)
	}
	sort.Strings(tags)
	for _, tag := range tags {
		fmt.Fprintf(&b, " %s=%016x", tag, math.Float64bits(phases[tag]))
	}
	return b.String()
}

// TestSimTimeGolden pins the simulated clock of every distributed
// layout bit for bit: single-source searches under each direction
// policy and one 8-source batch per layout, on a fixed R-MAT instance
// priced with the Franklin profile. The two Section 6 comparators,
// top-down by construction, pin one search and one 8-source batch each. Volumes alone (TestCommVolumeTraceGolden)
// would not notice a change to when words move or how local work is
// charged; this golden does.
func TestSimTimeGolden(t *testing.T) {
	g, err := NewRMATGraph(10, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	srcs := g.Sources(8, 9)
	golden := []struct {
		algo  Algorithm
		dir   Direction
		batch bool
		want  string
	}{
		{OneDFlat, Auto, false,
			"sim=3f33ec5705ea3289 td=383 bu=384 a2a=3f172b8a17519d84 allreduce=3f21225a508c1226 bitmap=3f14ef58f16667c4"},
		{OneDFlat, TopDownOnly, false,
			"sim=3f33c756affecf97 td=10780 bu=0 a2a=3f24b041b7ec7c26 allreduce=3f2127c596cd8c65"},
		{OneDFlat, BottomUpOnly, false,
			"sim=3f290b3523898332 td=0 bu=19796 bitmap=3f2614ffc16bc5a2"},
		{OneDFlat, Auto, true,
			"sim=3f46e35576eb4903 td=111 bu=21095 a2a=3f0cd5cf8501eab0 allreduce=3f351a0d3ecf4012 bitmap=3f3105eea3d985e6"},
		{OneDHybrid, Auto, false,
			"sim=3f35b79efcd5b51a td=383 bu=384 a2a=3f15397ff2615876 allreduce=3f211252792fd2e8 bitmap=3f1494d9e3ae0730"},
		{OneDHybrid, TopDownOnly, false,
			"sim=3f344fcc57424255 td=10780 bu=0 a2a=3f2203c4f556c87c allreduce=3f211281b7d09152"},
		{OneDHybrid, BottomUpOnly, false,
			"sim=3f2ae6c93c0d6632 td=0 bu=19796 bitmap=3f24dda287ffbe3a"},
		{OneDHybrid, Auto, true,
			"sim=3f43f54c7ed0eeda td=111 bu=21095 a2a=3f0bb6cab8e897bc allreduce=3f349e6846a18b3a bitmap=3f22bedaacf074af"},
		{TwoDFlat, Auto, false,
			"sim=3f3640dcbb98a218 td=383 bu=566 allreduce=3f212a2c69e476ec bitmap=3f117014e5eb2be0 expand=3f0496317c9c2a3b fold=3f13ad5da60b5d79 transpose=3ef475b66e1940c8"},
		{TwoDFlat, TopDownOnly, false,
			"sim=3f36f1e2dd8fa596 td=10780 bu=0 allreduce=3f2166b4ded22f7c expand=3f14b486c9a20ece fold=3f1650177d46be06 transpose=3f013c8ac232b755"},
		{TwoDFlat, BottomUpOnly, false,
			"sim=3f395e9cb5b13bf4 td=0 bu=19978 allreduce=3f21a18216264f4e bitmap=3f232e7d634f7d0f fold=3f143d7e6c95cb1a"},
		{TwoDFlat, Auto, true,
			"sim=3f4d4187bb9ef2b5 td=111 bu=21634 allreduce=3f34eecc116b2b58 bitmap=3f332674193da4e5 expand=3efd04255c38989f fold=3f2211d6d347208a transpose=3eeb5af1b586d76e"},
		{TwoDHybrid, Auto, false,
			"sim=3f364812859717db td=383 bu=566 allreduce=3f2116e503564a07 bitmap=3f112393d8e55ee8 expand=3f047b6ab80d55b3 fold=3f11d6d2a2334d09 transpose=3ef475b66e1940c8"},
		{TwoDHybrid, TopDownOnly, false,
			"sim=3f354a7039ef7d0b td=10780 bu=0 allreduce=3f21240d65133632 expand=3f11f4b051d317a6 fold=3f1284f7a47b6fc9 transpose=3f013c8ac232b754"},
		{TwoDHybrid, BottomUpOnly, false,
			"sim=3f37fc2e470cc53c td=0 bu=19978 allreduce=3f2122655fca22cc bitmap=3f22da55d4fc4ece fold=3f11faaa82546b85"},
		{TwoDHybrid, Auto, true,
			"sim=3f46a07f36cde4a6 td=111 bu=21634 allreduce=3f349237e6d14ecb bitmap=3f25164544605fc5 expand=3efbb38722ebdfb3 fold=3f18b1eb52a7754f transpose=3eeb5af1b586d76e"},
		{Reference, TopDownOnly, false,
			"sim=3f43f75dacf4e445 td=10780 bu=0 a2a=3f3004e5ceee9387 allreduce=3f2cc08cefdf6ddc"},
		{Reference, TopDownOnly, true,
			"sim=3f7455b2fb44a356 td=86240 bu=0 a2a=3f60a5d227a3b4b0 allreduce=3f5d1221c09a0e8a"},
		{PBGL, TopDownOnly, false,
			"sim=3f556d3970376b3e td=10780 bu=0 a2a=3f427aa7f4a2c00d allreduce=3f32b6e6dc6d7eb3"},
		{PBGL, TopDownOnly, true,
			"sim=3f85d141bf7ca7fd td=86240 bu=0 a2a=3f7327f3afa7b268 allreduce=3f62ec70a3788cfe"},
	}
	sess := NewSession()
	defer sess.Close()
	for _, gc := range golden {
		opt := Options{Algorithm: gc.algo, Ranks: 4, Machine: "franklin", Direction: gc.dir}
		var got string
		if gc.batch {
			res, err := sess.BFSBatch(g, srcs, opt)
			if err != nil {
				t.Fatal(err)
			}
			got = simFingerprint(res.SimTime, res.CommByPhase, res.ScannedTopDown, res.ScannedBottomUp)
		} else {
			res, err := sess.Search(g, srcs[0], opt)
			if err != nil {
				t.Fatal(err)
			}
			got = simFingerprint(res.SimTime, res.CommByPhase, res.ScannedTopDown, res.ScannedBottomUp)
		}
		if got != gc.want {
			t.Errorf("%v/%v batch=%v:\n got %s\nwant %s", gc.algo, gc.dir, gc.batch, got, gc.want)
		}
	}
}
