package cluster

import (
	"testing"

	"repro/internal/netmodel"
)

func TestAlltoallvMovesData(t *testing.T) {
	const p = 7
	w := NewWorld(p, ZeroCost{})
	g := w.WorldGroup()
	w.Run(func(r *Rank) {
		send := make([][]int64, p)
		for j := 0; j < p; j++ {
			// rank i sends {i*100+j} to rank j, plus i extra words
			send[j] = []int64{int64(r.ID()*100 + j)}
			for k := 0; k < r.ID(); k++ {
				send[j] = append(send[j], int64(k))
			}
		}
		recv := g.Alltoallv(r, send, "a2a")
		for src := 0; src < p; src++ {
			if len(recv[src]) != 1+src {
				t.Errorf("rank %d: recv[%d] has %d words, want %d", r.ID(), src, len(recv[src]), 1+src)
				return
			}
			if recv[src][0] != int64(src*100+r.ID()) {
				t.Errorf("rank %d: recv[%d][0] = %d", r.ID(), src, recv[src][0])
			}
		}
	})
}

func TestAllgathervOrdered(t *testing.T) {
	const p = 5
	w := NewWorld(p, ZeroCost{})
	g := w.WorldGroup()
	w.Run(func(r *Rank) {
		parts := g.Allgatherv(r, []int64{int64(r.ID() * 10)}, "ag")
		for i := 0; i < p; i++ {
			if len(parts[i]) != 1 || parts[i][0] != int64(i*10) {
				t.Errorf("rank %d: parts[%d] = %v", r.ID(), i, parts[i])
			}
		}
	})
}

func TestAllreduce(t *testing.T) {
	const p = 9
	w := NewWorld(p, ZeroCost{})
	g := w.WorldGroup()
	w.Run(func(r *Rank) {
		sum := g.AllreduceSum(r, int64(r.ID()), "ar")
		if sum != p*(p-1)/2 {
			t.Errorf("rank %d: sum = %d", r.ID(), sum)
		}
	})
}

// TestAllreduceSum2 checks the two-word allreduce for one, four and
// sixteen members: both sums reach every member, the operation is
// priced as one two-word allreduce, and each member leaves at the
// latest entry clock plus that price, its wait booked to the tag.
func TestAllreduceSum2(t *testing.T) {
	m := netmodel.Franklin()
	for _, p := range []int{1, 4, 16} {
		w := NewWorld(p, m)
		g := w.WorldGroup()
		cost := m.Allreduce(p, 2)
		if p > 1 && cost <= m.Allreduce(p, 1) {
			t.Fatalf("p=%d: two-word price %v not above the one-word %v", p, cost, m.Allreduce(p, 1))
		}
		w.Run(func(r *Rank) {
			id := int64(r.ID())
			r.Charge(float64(id) * 0.01)
			a, b := g.AllreduceSum2(r, id, 1000+id*id, "sum2")
			wantA := int64(p * (p - 1) / 2)
			wantB := int64(1000*p + (p-1)*p*(2*p-1)/6)
			if a != wantA || b != wantB {
				t.Errorf("p=%d rank %d: sums (%d, %d), want (%d, %d)", p, r.ID(), a, b, wantA, wantB)
			}
			last := float64(p-1) * 0.01
			if diff := r.clock - (last + cost); diff > 1e-12 || diff < -1e-12 {
				t.Errorf("p=%d rank %d: clock %v, want %v", p, r.ID(), r.clock, last+cost)
			}
			wantComm := last - float64(id)*0.01 + cost
			if diff := r.CommTime("sum2") - wantComm; diff > 1e-12 || diff < -1e-12 {
				t.Errorf("p=%d rank %d: comm %v, want %v", p, r.ID(), r.CommTime("sum2"), wantComm)
			}
		})
	}
}

func TestAllreduceOr(t *testing.T) {
	const p = 9
	w := NewWorld(p, ZeroCost{})
	g := w.WorldGroup()
	w.Run(func(r *Rank) {
		// Each rank contributes one distinct bit plus a shared high bit;
		// every member must see the union.
		v := uint64(1)<<uint(r.ID()) | 1<<63
		or := g.AllreduceOr(r, v, "ar")
		want := uint64(1<<p-1) | 1<<63
		if or != want {
			t.Errorf("rank %d: or = %x, want %x", r.ID(), or, want)
		}
		if z := g.AllreduceOr(r, 0, "ar"); z != 0 {
			t.Errorf("rank %d: or of zeros = %x", r.ID(), z)
		}
	})
}

func TestAllreduceOrPriced(t *testing.T) {
	m := netmodel.Profiles()["franklin"]
	w := NewWorld(4, m)
	g := w.WorldGroup()
	w.Run(func(r *Rank) {
		g.AllreduceOr(r, uint64(r.ID()), "or")
		if r.CommTime("or") <= 0 {
			t.Errorf("rank %d: AllreduceOr charged no time", r.ID())
		}
	})
}

func TestBcastAndGatherv(t *testing.T) {
	const p = 6
	w := NewWorld(p, ZeroCost{})
	g := w.WorldGroup()
	w.Run(func(r *Rank) {
		var payload []int64
		if g.RankIn(r) == 2 {
			payload = []int64{42, 43}
		}
		got := g.Bcast(r, 2, payload, "bc")
		if len(got) != 2 || got[0] != 42 || got[1] != 43 {
			t.Errorf("rank %d: bcast got %v", r.ID(), got)
		}
		parts := g.Gatherv(r, 0, []int64{int64(r.ID())}, "gv")
		if g.RankIn(r) == 0 {
			for i := 0; i < p; i++ {
				if len(parts[i]) != 1 || parts[i][0] != int64(i) {
					t.Errorf("gatherv parts[%d] = %v", i, parts[i])
				}
			}
		} else if parts != nil {
			t.Errorf("rank %d: non-root got gather result", r.ID())
		}
	})
}

func TestSubGroups(t *testing.T) {
	// Two disjoint groups doing independent reductions.
	w := NewWorld(6, ZeroCost{})
	g0 := w.NewGroup([]int{0, 1, 2})
	g1 := w.NewGroup([]int{3, 4, 5})
	w.Run(func(r *Rank) {
		g := g0
		if r.ID() >= 3 {
			g = g1
		}
		sum := g.AllreduceSum(r, int64(r.ID()), "ar")
		want := int64(0 + 1 + 2)
		if r.ID() >= 3 {
			want = 3 + 4 + 5
		}
		if sum != want {
			t.Errorf("rank %d: sum = %d, want %d", r.ID(), sum, want)
		}
	})
}

func TestClockAdvancesAtCollectives(t *testing.T) {
	m := netmodel.Franklin()
	const p = 4
	w := NewWorld(p, m)
	g := w.WorldGroup()
	w.Run(func(r *Rank) {
		// Rank 3 computes longer; everyone must leave the allreduce at
		// rank 3's clock + allreduce cost.
		r.Charge(float64(r.ID()) * 0.01)
		g.AllreduceSum(r, 1, "sync")
		want := 0.03 + m.Allreduce(p, 1)
		if diff := r.clock - want; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("rank %d clock = %v, want %v", r.ID(), r.clock, want)
		}
		// The idle ranks' wait is booked as comm time.
		wantComm := 0.03 - float64(r.ID())*0.01 + m.Allreduce(p, 1)
		if diff := r.CommTime("sync") - wantComm; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("rank %d comm = %v, want %v", r.ID(), r.CommTime("sync"), wantComm)
		}
	})
	st := w.Stats()
	if st.MaxClock <= 0.03 {
		t.Errorf("MaxClock = %v", st.MaxClock)
	}
	if st.CommByTag["sync"] <= 0 {
		t.Error("no comm time booked for sync tag")
	}
}

func TestVolumesAccounted(t *testing.T) {
	const p = 3
	w := NewWorld(p, ZeroCost{})
	g := w.WorldGroup()
	w.Run(func(r *Rank) {
		send := make([][]int64, p)
		for j := range send {
			send[j] = []int64{1, 2}
		}
		g.Alltoallv(r, send, "a2a")
		sent, recvd := r.Volumes()
		if sent != 6 || recvd != 6 {
			t.Errorf("rank %d: sent %d recvd %d, want 6/6", r.ID(), sent, recvd)
		}
	})
	st := w.Stats()
	if st.TotalSent != 18 || st.TotalRecvd != 18 {
		t.Errorf("totals %d/%d, want 18/18", st.TotalSent, st.TotalRecvd)
	}
}

func TestSendRecvAllTranspose(t *testing.T) {
	// 2x2 grid transpose exchange: P(0,1) <-> P(1,0).
	w := NewWorld(4, ZeroCost{})
	grid := NewGrid(w, 2, 2)
	w.Run(func(r *Rank) {
		data := []int64{int64(r.ID() * 1000)}
		got := grid.All.SendRecvAll(r, grid.TransposePeer, data, "transpose")
		want := int64(grid.TransposePeer(r.ID()) * 1000)
		if len(got) != 1 || got[0] != want {
			t.Errorf("rank %d: got %v, want %d", r.ID(), got, want)
		}
	})
}

func TestGridStructure(t *testing.T) {
	w := NewWorld(6, ZeroCost{})
	g := NewGrid(w, 2, 3)
	if g.RowOf(4) != 1 || g.ColOf(4) != 1 {
		t.Errorf("rank 4 at (%d,%d)", g.RowOf(4), g.ColOf(4))
	}
	if g.Rows[1].members[0] != 3 || g.Cols[2].members[1] != 5 {
		t.Error("grid group membership wrong")
	}
	if g.Square() {
		t.Error("2x3 grid reported square")
	}
	w.Run(func(r *Rank) {
		rowSum := g.RowGroup(r).AllreduceSum(r, int64(r.ID()), "row")
		i := g.RowOf(r.ID())
		want := int64(3*i*3 + 0 + 1 + 2) // sum of ids in row i
		if rowSum != want {
			t.Errorf("rank %d: row sum %d, want %d", r.ID(), rowSum, want)
		}
		colSum := g.ColGroup(r).AllreduceSum(r, int64(r.ID()), "col")
		j := g.ColOf(r.ID())
		if colSum != int64(j+(j+3)) {
			t.Errorf("rank %d: col sum %d", r.ID(), colSum)
		}
	})
}

func TestClosestSquare(t *testing.T) {
	cases := map[int][2]int{
		1:     {1, 1},
		4:     {2, 2},
		6:     {2, 3},
		16:    {4, 4},
		2025:  {45, 45},
		40000: {200, 200},
		12:    {3, 4},
		7:     {1, 7},
	}
	for p, want := range cases {
		pr, pc := ClosestSquare(p)
		if pr != want[0] || pc != want[1] {
			t.Errorf("ClosestSquare(%d) = (%d,%d), want %v", p, pr, pc, want)
		}
		if pr*pc != p {
			t.Errorf("ClosestSquare(%d) does not factor p", p)
		}
	}
}

func TestRepeatedCollectives(t *testing.T) {
	// Exercise generation/reuse logic across many rounds.
	const p = 8
	w := NewWorld(p, ZeroCost{})
	g := w.WorldGroup()
	w.Run(func(r *Rank) {
		for round := 0; round < 200; round++ {
			sum := g.AllreduceSum(r, int64(round), "ar")
			if sum != int64(round*p) {
				t.Errorf("round %d: sum %d", round, sum)
				return
			}
		}
	})
}

func TestRunPanicsPropagate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("rank panic not propagated")
		}
	}()
	w := NewWorld(2, ZeroCost{})
	w.Run(func(r *Rank) {
		if r.ID() == 1 {
			panic("boom")
		}
	})
}

func TestWorldResetClearsLedgers(t *testing.T) {
	m := netmodel.Franklin()
	const p = 4
	w := NewWorld(p, m)
	g := w.WorldGroup()
	body := func(r *Rank) {
		r.Charge(0.01)
		send := make([][]int64, p)
		for j := range send {
			send[j] = []int64{1, 2}
		}
		g.Alltoallv(r, send, "a2a")
		g.AllreduceSum(r, 1, "sync")
	}
	w.Run(body)
	first := w.Stats()
	if first.MaxClock <= 0 || first.TotalSent == 0 {
		t.Fatalf("first run recorded nothing: %+v", first)
	}
	w.Reset()
	zero := w.Stats()
	if zero.MaxClock != 0 || zero.TotalSent != 0 || zero.TotalRecvd != 0 {
		t.Errorf("Reset left ledgers populated: %+v", zero)
	}
	for i := 0; i < p; i++ {
		if zero.CompTime[i] != 0 || zero.CommTime[i] != 0 {
			t.Errorf("rank %d ledgers not reset: comp=%v comm=%v",
				i, zero.CompTime[i], zero.CommTime[i])
		}
	}
	if len(zero.CommByTag) != 0 {
		t.Errorf("per-tag comm survives Reset: %v", zero.CommByTag)
	}
	// A second identical run over the reset world must reproduce the
	// first run's ledgers exactly (deterministic simulated time).
	w.Run(body)
	second := w.Stats()
	if second.MaxClock != first.MaxClock || second.TotalSent != first.TotalSent {
		t.Errorf("post-reset run differs: %+v vs %+v", second, first)
	}
}
