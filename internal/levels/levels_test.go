package levels

import (
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/decis"
	"repro/internal/dirheur"
	"repro/internal/netmodel"
	"repro/internal/serial"
)

// TestLoopSumsRankSlots runs four ranks that record three levels at
// once and checks the profile sums every rank's slot: scanned entries
// split by direction, per-level scanned and sent-word totals, and rank
// 0's direction and discovery series.
func TestLoopSumsRankSlots(t *testing.T) {
	const p = 4
	w := cluster.NewWorld(p, cluster.ZeroCost{})
	lp := New(w, true, nil)
	dirs := []dirheur.Direction{dirheur.TopDown, dirheur.BottomUp, dirheur.TopDown}
	found := []int64{5, 7, 0}
	w.Run(func(r *cluster.Rank) {
		for l, dir := range dirs {
			// Rank k sends k+l+1 words to rank 0 and scans 10*(k+1)+l
			// entries. Receivers may still read a level's buffers while
			// the sender runs ahead, so each level sends fresh ones.
			send := make([][]int64, p)
			send[0] = make([]int64, r.ID()+l+1)
			w.WorldGroup().Alltoallv(r, send, "a2a")
			lp.Level(r, dir, int64(10*(r.ID()+1)+l), found[l])
		}
	})
	var prof Profile
	lp.Fill(&prof)
	// Per level: scanned 10+20+30+40 + 4l, sent 1+2+3+4 + 4l.
	if want := []int64{100, 104, 108}; !slices.Equal(prof.LevelScanned, want) {
		t.Errorf("LevelScanned %v, want %v", prof.LevelScanned, want)
	}
	if want := []int64{10, 14, 18}; !slices.Equal(prof.LevelCommWords, want) {
		t.Errorf("LevelCommWords %v, want %v", prof.LevelCommWords, want)
	}
	if prof.ScannedTopDown != 208 || prof.ScannedBottomUp != 104 {
		t.Errorf("scanned top-down %d bottom-up %d, want 208 and 104", prof.ScannedTopDown, prof.ScannedBottomUp)
	}
	if want := []bool{false, true, false}; !slices.Equal(prof.LevelBottomUp, want) {
		t.Errorf("LevelBottomUp %v, want %v", prof.LevelBottomUp, want)
	}
	if want := []int64{5, 7}; !slices.Equal(prof.LevelFrontier, want) {
		t.Errorf("LevelFrontier %v, want %v (the final empty level is not a frontier)", prof.LevelFrontier, want)
	}
}

// TestLoopUntracedKeepsTotals checks that an untraced loop still sums
// the scanned totals but records no per-level series.
func TestLoopUntracedKeepsTotals(t *testing.T) {
	w := cluster.NewWorld(2, cluster.ZeroCost{})
	lp := New(w, false, nil)
	w.Run(func(r *cluster.Rank) {
		lp.Level(r, dirheur.TopDown, 3, 1)
		lp.Level(r, dirheur.BottomUp, 4, 0)
	})
	var prof Profile
	lp.Fill(&prof)
	if prof.ScannedTopDown != 6 || prof.ScannedBottomUp != 8 {
		t.Errorf("scanned %d/%d, want 6/8", prof.ScannedTopDown, prof.ScannedBottomUp)
	}
	if prof.LevelScanned != nil || prof.LevelBottomUp != nil || prof.LevelCommWords != nil {
		t.Errorf("untraced loop recorded a series: %+v", prof)
	}
}

// TestEndDirection checks the end-of-level step: Auto sums the
// discoveries and the edge volume in one two-word allreduce, advances
// the heuristic, lets a plan force the result and has rank 0 record the
// decision with every input the rule read; a fixed mode keeps its
// direction, sums the discoveries alone and records nothing.
func TestEndDirection(t *testing.T) {
	const p = 2
	m := netmodel.Franklin()
	w := cluster.NewWorld(p, m)
	lp := New(w, true, &decis.Plan{Dir: map[int64]dirheur.Direction{3: dirheur.TopDown}})
	var found [p][2]int64
	var got [p][2]dirheur.Direction
	var comm [p]float64
	w.Run(func(r *cluster.Rank) {
		me := r.ID()
		dirm := dirheur.New(dirheur.ModeAuto, 100, 1000)
		// 2*5 = 10 vertices carrying 2*40 = 80 edges against 920
		// unexplored: 80*14 > 920, and 10*10*24 >= 100*1 lets it pull.
		found[me][0], got[me][0] = lp.End(r, dirm, 1, 7, 5, 40)
		// Level 3 is forced top-down whatever the heuristic says.
		found[me][1], got[me][1] = lp.End(r, dirm, 2, 9, 25, 0)
		comm[me] = r.CommTime("allreduce")
	})
	for k := range got {
		if found[k] != [2]int64{10, 50} || got[k] != [2]dirheur.Direction{dirheur.BottomUp, dirheur.TopDown} {
			t.Errorf("rank %d found %v directions %v, want [10 50] [bottom-up top-down]", k, found[k], got[k])
		}
		if want := 2 * m.Allreduce(p, 2); comm[k] != want {
			t.Errorf("rank %d allreduce time %v, want two two-word allreduces %v", k, comm[k], want)
		}
	}
	var prof Profile
	lp.Fill(&prof)
	if len(prof.Decisions) != 2 {
		t.Fatalf("%d decisions, want 2 (rank 0 only)", len(prof.Decisions))
	}
	d := prof.Decisions[0]
	if d.Kind != decis.KindDirection || d.Level != 2 || d.Frontier != 10 || d.EdgeEst != 80 ||
		d.Unexplored != 920 || d.Verts != 100 || d.PrevFrontier != 1 ||
		d.Choice != "bottom-up" || !slices.Equal(d.Alternatives, []string{"top-down"}) {
		t.Errorf("first decision %+v", d)
	}
	if d := prof.Decisions[1]; d.Level != 3 || d.Frontier != 50 || d.PrevFrontier != 10 || d.Choice != "top-down" {
		t.Errorf("forced decision %+v", d)
	}
	if !slices.Equal(prof.LevelFrontier, []int64{10, 50}) || prof.ScannedTopDown != 14 || prof.ScannedBottomUp != 18 {
		t.Errorf("recorded frontier %v, scanned %d/%d", prof.LevelFrontier, prof.ScannedTopDown, prof.ScannedBottomUp)
	}

	w.Reset()
	fixed := New(w, true, nil)
	w.Run(func(r *cluster.Rank) {
		dirm := dirheur.New(dirheur.ModeBottomUp, 100, 1000)
		if f, d := fixed.End(r, dirm, 1, 3, 5, 40); f != 10 || d != dirheur.BottomUp {
			t.Errorf("fixed bottom-up mode found %d, stepped to %v", f, d)
		}
		if c := r.CommTime("allreduce"); c != m.Allreduce(p, 1) {
			t.Errorf("fixed mode allreduce time %v, want one one-word allreduce %v", c, m.Allreduce(p, 1))
		}
	})
	var fixedProf Profile
	fixed.Fill(&fixedProf)
	if fixedProf.Decisions != nil {
		t.Errorf("fixed mode recorded %v", fixedProf.Decisions)
	}
}

// TestEndCounted checks the step of a level whose discoveries every
// rank already counted: Auto reduces the edge volume alone while the
// search goes on, and the final level communicates nothing.
func TestEndCounted(t *testing.T) {
	const p = 2
	m := netmodel.Franklin()
	w := cluster.NewWorld(p, m)
	lp := New(w, false, nil)
	w.Run(func(r *cluster.Rank) {
		dirm := dirheur.New(dirheur.ModeAuto, 100, 1000)
		dirm.Force(dirheur.BottomUp)
		// 60 vertices: 60*24 >= 100 keeps it bottom-up.
		if f, d := lp.EndCounted(r, dirm, 1, 3, 60, 40); f != 60 || d != dirheur.BottomUp {
			t.Errorf("rank %d: found %d, stepped to %v", r.ID(), f, d)
		}
		if got := dirm.Unexplored(); got != 920 {
			t.Errorf("rank %d: mu %d, want 920 (mf reduced over both ranks)", r.ID(), got)
		}
		if f, _ := lp.EndCounted(r, dirm, 2, 3, 0, 0); f != 0 {
			t.Errorf("rank %d: final level found %d", r.ID(), f)
		}
		if c := r.CommTime("allreduce"); c != m.Allreduce(p, 1) {
			t.Errorf("rank %d: allreduce time %v, want one one-word allreduce %v", r.ID(), c, m.Allreduce(p, 1))
		}
	})
}

// TestBatchFinish runs two ranks of a 3-search batch over 6 vertices
// and checks the finisher: committed slots survive, the rest read
// Unreached, per-search levels follow the retirement masks, and edge
// counts take the full-mask fast path and the fringe bit loop alike.
func TestBatchFinish(t *testing.T) {
	const p, n = 2, 6
	sources := []int64{0, 1, 4}
	w := cluster.NewWorld(p, cluster.ZeroCost{})
	bt := NewBatch(sources, n, p)
	out := bt.Out
	if len(out.Dist) != 3 || len(out.Dist[0]) != n || cap(out.Dist[0]) != n {
		t.Fatalf("planes %d x %d (cap %d), want 3 x %d with no spare capacity",
			len(out.Dist), len(out.Dist[0]), cap(out.Dist[0]), n)
	}
	// Visited masks: rank 0 owns vertices 0-2, rank 1 owns 3-5.
	vis := [p][]uint64{{0b111, 0b011, 0}, {0b100, 0b111, 0b001}}
	w.Run(func(r *cluster.Rank) {
		lo := int64(3 * r.ID())
		for vl, m := range vis[r.ID()] {
			for s := 0; s < 3; s++ {
				if m&(1<<s) != 0 {
					out.Dist[s][lo+int64(vl)] = 1
					out.Parent[s][lo+int64(vl)] = 9
				}
			}
		}
		bt.Retire(r, 0b111, 1)
		bt.Retire(r, 0b101, 2)
		bt.FinishRank(r, lo, vis[r.ID()], 2)
	})
	deg := []int64{1, 2, 4, 8, 16, 32}
	for k := 0; k < p; k++ {
		bt.CountEdges(k, func(vl int64) int64 { return deg[3*k+int(vl)] })
	}
	wantDist := [][]int64{
		{1, 1, serial.Unreached, serial.Unreached, 1, 1},
		{1, 1, serial.Unreached, serial.Unreached, 1, serial.Unreached},
		{1, serial.Unreached, serial.Unreached, 1, 1, serial.Unreached},
	}
	for s := range wantDist {
		if !slices.Equal(out.Dist[s], wantDist[s]) {
			t.Errorf("search %d dist %v, want %v", s, out.Dist[s], wantDist[s])
		}
		if out.Parent[s][2] != serial.Unreached || out.Parent[s][4] != 9 {
			t.Errorf("search %d parents %v", s, out.Parent[s])
		}
	}
	if want := []int64{2, 1, 2}; !slices.Equal(out.Levels, want) {
		t.Errorf("Levels %v, want %v", out.Levels, want)
	}
	if out.BatchLevels != 2 {
		t.Errorf("BatchLevels %d, want 2", out.BatchLevels)
	}
	// Reached by some search: vertices 0, 1, 3, 4, 5.
	if out.UniqueTraversedEdges != 1+2+8+16+32 {
		t.Errorf("UniqueTraversedEdges %d, want 59", out.UniqueTraversedEdges)
	}
	if want := []int64{1 + 2 + 16 + 32, 1 + 2 + 16, 1 + 8 + 16}; !slices.Equal(out.TraversedEdges, want) {
		t.Errorf("TraversedEdges %v, want %v", out.TraversedEdges, want)
	}
	if FullMask(3) != 0b111 || FullMask(64) != ^uint64(0) {
		t.Errorf("FullMask(3) = %b, FullMask(64) = %x", FullMask(3), FullMask(64))
	}
}
