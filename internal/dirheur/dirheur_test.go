package dirheur

import "testing"

// TestNewBatchScalesThresholds pins the batch heuristic's construction:
// a width-w batch machine is the scalar machine on a w-times-larger
// problem, so aggregate statistics w times the scalar ones drive the
// same switch sequence, and width 1 is the scalar machine exactly.
func TestNewBatchScalesThresholds(t *testing.T) {
	const n, adj, w = 1 << 12, 16 << 12, 64
	scalar := New(ModeAuto, n, adj)
	batch := NewBatch(ModeAuto, n, adj, w)
	if one := NewBatch(ModeAuto, n, adj, 1); one.Unexplored() != scalar.Unexplored() {
		t.Fatalf("width-1 batch mu = %d, scalar %d", one.Unexplored(), scalar.Unexplored())
	}
	if batch.Unexplored() != w*adj {
		t.Fatalf("batch mu = %d, want %d", batch.Unexplored(), int64(w*adj))
	}
	profile := [][2]int64{{1, 16}, {40, 700}, {2000, 30000}, {1500, 20000}, {60, 900}, {0, 0}}
	for i, lv := range profile {
		sd := scalar.Advance(lv[0], lv[1])
		bd := batch.Advance(lv[0]*w, lv[1]*w)
		if sd != bd {
			t.Fatalf("level %d: scalar %v, batch %v", i, sd, bd)
		}
	}
	if NewBatch(ModeAuto, n, adj, 0).Unexplored() != adj {
		t.Fatal("width 0 did not clamp to 1")
	}
}

func TestFixedModesNeverSwitch(t *testing.T) {
	td := New(ModeTopDown, 1000, 100000)
	bu := New(ModeBottomUp, 1000, 100000)
	if td.Direction() != TopDown {
		t.Fatal("topdown machine did not start top-down")
	}
	if bu.Direction() != BottomUp {
		t.Fatal("bottomup machine did not start bottom-up")
	}
	// Feed statistics that would trip both thresholds in auto mode.
	for i := 0; i < 5; i++ {
		if got := td.Advance(900, 50000); got != TopDown {
			t.Fatalf("level %d: topdown mode switched to %v", i, got)
		}
		if got := bu.Advance(1, 1); got != BottomUp {
			t.Fatalf("level %d: bottomup mode switched to %v", i, got)
		}
	}
}

// TestAutoSwitchesAtKnownSizes drives the machine through a synthetic
// R-MAT-like frontier profile and pins the exact levels at which the
// alpha and beta rules fire.
func TestAutoSwitchesAtKnownSizes(t *testing.T) {
	const n, adj = 1 << 16, 16 << 16 // 65536 vertices, ~1M adjacency slots
	m := New(ModeAuto, n, adj)
	if m.Direction() != TopDown {
		t.Fatal("auto mode did not start top-down")
	}

	// Level 1: tiny frontier. mf*14 = 4480 <= mu, stay top-down.
	if got := m.Advance(20, 320); got != TopDown {
		t.Fatalf("after small level: %v, want top-down", got)
	}
	// Level 2: exploding frontier. mf = 200000, mu = adj-320-200000 =
	// 848256; 200000*14 > 848256, so the alpha rule must fire.
	if got := m.Advance(12000, 200000); got != BottomUp {
		t.Fatalf("after heavy level: %v, want bottom-up", got)
	}
	// Level 3: still huge: nf*24 >= n keeps it bottom-up.
	if got := m.Advance(40000, 700000); got != BottomUp {
		t.Fatalf("mid-plateau: %v, want bottom-up", got)
	}
	// Level 4: frontier collapses: 100*24 = 2400 < 65536 flips back.
	if got := m.Advance(100, 1600); got != TopDown {
		t.Fatalf("after collapse: %v, want top-down", got)
	}
}

// TestAutoAlphaBoundaryExact pins the alpha rule's boundary on a
// frontier the growth guard admits, and that the guard holds back the
// same edge volumes when a 10-vertex frontier sits on a 2^20-vertex
// graph.
func TestAutoAlphaBoundaryExact(t *testing.T) {
	// After Advance subtracts mf, mu = 1400; with alpha = 14 the rule
	// "mf*alpha > mu" must not fire at mf = 100 (1400 == 1400) and must
	// fire at mf = 101 on an identically prepared machine. On n = 1000
	// the guard admits nf = 10: 10*10*24 = 2400 >= 1000*1.
	stay := New(ModeAuto, 1000, 1500)
	if got := stay.Advance(10, 100); got != TopDown {
		t.Fatalf("boundary mf*alpha == mu switched: %v", got)
	}
	flip := New(ModeAuto, 1000, 1501)
	if got := flip.Advance(10, 101); got != BottomUp {
		t.Fatalf("mf*alpha > mu did not switch: %v", got)
	}
	// On n = 2^20 the alpha rule fires as above, but the frontier grown
	// one more level (10*10 = 100 vertices) already meets the beta exit
	// (100*24 < 2^20): the guard keeps it top-down.
	guarded := New(ModeAuto, 1<<20, 1501)
	if got := guarded.Advance(10, 101); got != TopDown {
		t.Fatalf("guard did not hold a 10-vertex frontier on 2^20 vertices: %v", got)
	}
}

// TestGrowthGuard drives the guarded switch through frontier profiles
// on which the alpha rule fires at every step, so the growth guard
// alone decides whether a level pulls.
func TestGrowthGuard(t *testing.T) {
	type step struct {
		nf, mf int64
		want   Direction
	}
	cases := []struct {
		name   string
		n, adj int64
		width  int // 0: New, else NewBatch of this width
		steps  []step
	}{{
		// A crawl's tail: the frontier holds at 484 +- 1 vertices while
		// mu has shrunk below alpha*mf. The bare alpha/beta pair
		// alternates top-down and bottom-up here. The first step only
		// records the previous frontier (mf = 0 never pulls).
		name: "flat crawl frontier", n: 1 << 16, adj: 25000,
		steps: []step{
			{483, 0, TopDown}, {484, 2000, TopDown}, {483, 2000, TopDown}, {484, 2000, TopDown},
			{483, 2000, TopDown}, {484, 2000, TopDown}, {483, 2000, TopDown},
		},
	}, {
		name: "growth from 1 to 2000 vertices", n: 1 << 16, adj: 1 << 20,
		steps: []step{{2000, 100000, BottomUp}},
	}, {
		// After the beta exit a frontier that falls from 1711 to 2
		// vertices stays top-down however small mu gets.
		name: "tail fall from 1711 to 2", n: 1 << 16, adj: 200000 + 700000 + 20000 + 40,
		steps: []step{
			{2000, 200000, BottomUp}, {40000, 700000, BottomUp},
			{1711, 20000, TopDown}, {2, 30, TopDown},
		},
	}, {
		// A 64-wide batch on 2^10 vertices starts from prevNf = 64:
		// 100 discoveries from 64 sources would grow to 156, below the
		// beta exit of the batch-scaled n = 2^16, so it stays top-down
		// where a one-source machine on 2^16 vertices would pull.
		name: "batch starts from its width", n: 1 << 10, adj: 1 << 10, width: 64,
		steps: []step{{100, 10000, TopDown}, {5000, 20000, BottomUp}},
	}, {
		// The guard's exact boundary: 10*10*24 == 2400*1 pulls, and one
		// more vertex in n holds it back (next case).
		name: "guard boundary met", n: 2400, adj: 1000,
		steps: []step{{10, 100, BottomUp}},
	}, {
		name: "guard boundary missed", n: 2401, adj: 1000,
		steps: []step{{10, 100, TopDown}},
	}, {
		// Scale-32 sizes: nf*nf = 2^66 overflows int64 (wrapping to 0).
		// The first step records prevNf (alpha does not fire); then
		// 2^66*24 = 3*2^69 equals n*prevNf = 3*2^36 * 2^33 exactly.
		name: "no overflow at nf = 2^33", n: 3 << 36, adj: 1 << 40,
		steps: []step{{1 << 33, 1 << 34, TopDown}, {1 << 33, 1 << 38, BottomUp}},
	}, {
		name: "no overflow, shrinking past 2^33", n: 3 << 36, adj: 1 << 40,
		steps: []step{{1<<33 + 1, 1 << 34, TopDown}, {1 << 33, 1 << 38, TopDown}},
	}, {
		// Growth from 2^20 to 2^33 vertices: 2^66*24 far exceeds
		// n*prevNf = 2^56, where int64 products would wrap nf*nf to 0.
		name: "no overflow, growing to 2^33", n: 1 << 36, adj: 1 << 40,
		steps: []step{{1 << 20, 1 << 24, TopDown}, {1 << 33, 1 << 38, BottomUp}},
	}}
	for _, tc := range cases {
		m := New(ModeAuto, tc.n, tc.adj)
		if tc.width > 0 {
			m = NewBatch(ModeAuto, tc.n, tc.adj, tc.width)
			if m.PrevFrontier() != int64(tc.width) {
				t.Errorf("%s: batch prevNf %d, want %d", tc.name, m.PrevFrontier(), tc.width)
			}
		}
		for i, st := range tc.steps {
			if got := m.Advance(st.nf, st.mf); got != st.want {
				t.Errorf("%s: step %d (nf=%d mf=%d): %v, want %v", tc.name, i, st.nf, st.mf, got, st.want)
			}
			if m.PrevFrontier() != st.nf {
				t.Errorf("%s: step %d: prevNf %d, want %d", tc.name, i, m.PrevFrontier(), st.nf)
			}
		}
	}
}

// TestForceKeepsFrontierHistory checks that a counterfactual force
// changes the direction only: the next Advance reads the frontier the
// last Advance recorded.
func TestForceKeepsFrontierHistory(t *testing.T) {
	m := New(ModeAuto, 1<<16, 1<<20)
	m.Advance(2000, 100000) // pulls
	m.Force(TopDown)
	if m.PrevFrontier() != 2000 {
		t.Fatalf("prevNf %d after Force, want 2000", m.PrevFrontier())
	}
	// 3000*3000*24 >= 2^16*2000: still growing, so the alpha rule pulls.
	if got := m.Advance(3000, 400000); got != BottomUp {
		t.Fatalf("after forced top-down: %v, want bottom-up", got)
	}
}

func TestUnexploredAccounting(t *testing.T) {
	m := New(ModeTopDown, 100, 1000)
	m.Advance(5, 300)
	if m.Unexplored() != 700 {
		t.Fatalf("mu = %d, want 700", m.Unexplored())
	}
	m.Advance(5, 900) // over-subtraction clamps at zero
	if m.Unexplored() != 0 {
		t.Fatalf("mu = %d, want 0", m.Unexplored())
	}
}

func TestStrings(t *testing.T) {
	if TopDown.String() != "top-down" || BottomUp.String() != "bottom-up" {
		t.Error("Direction strings wrong")
	}
	for m, want := range map[Mode]string{
		ModeTopDown: "topdown", ModeBottomUp: "bottomup", ModeAuto: "auto", Mode(9): "unknown",
	} {
		if m.String() != want {
			t.Errorf("Mode(%d).String() = %q, want %q", int(m), m.String(), want)
		}
	}
}
