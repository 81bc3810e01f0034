package levels

import (
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/decis"
	"repro/internal/dirheur"
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

// TestNextDirection checks the direction step: Auto reduces the edge
// volume, advances the heuristic, lets a plan force the result and has
// rank 0 record the decision; a fixed mode keeps its direction and
// communicates nothing.
func TestNextDirection(t *testing.T) {
	const p = 2
	w := cluster.NewWorld(p, cluster.ZeroCost{})
	lp := New(w, true, &decis.Plan{Dir: map[int64]dirheur.Direction{3: dirheur.TopDown}})
	var got [p][2]dirheur.Direction
	w.Run(func(r *cluster.Rank) {
		dirm := dirheur.New(dirheur.ModeAuto, dirheur.Policy{}, 100, 1000)
		// 2*40 = 80 edges against 920 unexplored: 80*14 > 920 pulls.
		got[r.ID()][0] = lp.Next(r, dirm, 1, 10, 40)
		// Level 3 is forced top-down whatever the heuristic says.
		got[r.ID()][1] = lp.Next(r, dirm, 2, 50, 0)
	})
	for k := range got {
		if got[k] != [2]dirheur.Direction{dirheur.BottomUp, dirheur.TopDown} {
			t.Errorf("rank %d directions %v, want [bottom-up top-down]", k, got[k])
		}
	}
	var prof Profile
	lp.Fill(&prof)
	if len(prof.Decisions) != 2 {
		t.Fatalf("%d decisions, want 2 (rank 0 only)", len(prof.Decisions))
	}
	d := prof.Decisions[0]
	if d.Kind != decis.KindDirection || d.Level != 2 || d.Frontier != 10 || d.EdgeEst != 80 ||
		d.Unexplored != 920 || d.Verts != 100 || d.Alpha != 14 || d.Beta != 24 ||
		d.Choice != "bottom-up" || !slices.Equal(d.Alternatives, []string{"top-down"}) {
		t.Errorf("first decision %+v", d)
	}
	if d := prof.Decisions[1]; d.Level != 3 || d.Choice != "top-down" {
		t.Errorf("forced decision %+v", d)
	}

	w.Reset()
	fixed := New(w, true, nil)
	w.Run(func(r *cluster.Rank) {
		dirm := dirheur.New(dirheur.ModeBottomUp, dirheur.Policy{}, 100, 1000)
		if d := fixed.Next(r, dirm, 1, 10, 40); d != dirheur.BottomUp {
			t.Errorf("fixed bottom-up mode stepped to %v", d)
		}
	})
	var fixedProf Profile
	fixed.Fill(&fixedProf)
	if st := w.Stats(); len(st.CommByTag) != 0 || fixedProf.Decisions != nil {
		t.Errorf("fixed mode communicated %v or recorded %v", st.CommByTag, fixedProf.Decisions)
	}
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
