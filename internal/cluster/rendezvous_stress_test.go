package cluster

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// Stress suite for the parallel rendezvous engine. The arrival gates
// and the parallel assembly phases all run outside the group mutex, so
// these tests
// deliberately skew goroutine interleavings — randomized sleeps and
// yields between collectives — and assert that (a) the race detector
// stays quiet (scripts/ci.sh runs this package under -race) and (b) the
// simulated figures are bit-identical across arbitrary host schedules.

// jitter sleeps or yields pseudo-randomly so ranks hit the rendezvous
// in different orders on every run: sometimes a rank races ahead,
// sometimes it straggles, sometimes the whole group piles onto the
// arrival gate at once.
func jitter(rng *rand.Rand) {
	switch rng.Intn(4) {
	case 0:
		time.Sleep(time.Duration(rng.Intn(60)) * time.Microsecond)
	case 1:
		runtimeGosched()
	}
}

// runtimeGosched is split out so jitter stays readable.
func runtimeGosched() {
	// A bare yield perturbs scheduling without the latency of a sleep.
	for i := 0; i < 3; i++ {
		time.Sleep(0)
	}
}

// runJitteredSchedule drives a 3x4 grid world through rounds of
// collectives on the world group and the row/column subcommunicators, with per-rank jitter seeded by seed.
// Returns the world's stats.
func runJitteredSchedule(t *testing.T, seed int64, rounds int) Stats {
	t.Helper()
	const pr, pc = 3, 4
	w := NewWorld(pr*pc, linkModel{})
	grid := NewGrid(w, pr, pc)
	w.Run(func(r *Rank) {
		rng := rand.New(rand.NewSource(seed + int64(r.ID())))
		row, col := grid.RowGroup(r), grid.ColGroup(r)
		for round := 0; round < rounds; round++ {
			jitter(rng)
			// World-group all-to-all: rank i sends j words to rank j.
			send := make([][]int64, w.P)
			for j := range send {
				send[j] = make([]int64, j%3)
				for k := range send[j] {
					send[j][k] = int64(r.ID()*1000 + j*10 + round)
				}
			}
			got := grid.All.Alltoallv(r, send, "stress/a2a")
			for src, part := range got {
				for k, v := range part {
					want := int64(src*1000 + r.ID()*10 + round)
					if v != want {
						t.Errorf("round %d rank %d: a2a[%d][%d] = %d, want %d",
							round, r.ID(), src, k, v, want)
					}
				}
			}
			jitter(rng)
			// Row subcommunicator: an allgather interleaved with a column
			// bitmap exchange — the 2D bottom-up pattern, where row and
			// column groups sharing member ranks run back to back.
			parts := row.Allgatherv(r, []int64{int64(r.ID()), int64(round)}, "stress/row")
			for i, part := range parts {
				if part[0] != int64(row.members[i]) || part[1] != int64(round) {
					t.Errorf("round %d rank %d: row gather[%d] = %v", round, r.ID(), i, part)
				}
			}
			jitter(rng)
			// Column bitmap exchange: member i owns word i of a pr-word
			// bitmap and sets one bit derived from the round.
			me := col.RankIn(r)
			words := []uint64{1 << uint(round%64)}
			bm := col.AllgatherBitsBlocks(r, words, int64(me), int64(pr), "stress/colbits")
			for i := int64(0); i < int64(pr); i++ {
				if bm[i] != 1<<uint(round%64) {
					t.Errorf("round %d rank %d: colbits[%d] = %#x", round, r.ID(), i, bm[i])
				}
			}
			jitter(rng)
			// Row all-to-all after local compute, then a row allgather:
			// the fold of a 2D level followed by the next level's gather.
			sendRow := make([][]int64, len(row.members))
			for j := range sendRow {
				sendRow[j] = []int64{int64(r.ID()), int64(j), int64(round)}
			}
			r.Charge(1e-6) // deterministic compute so figures can't drift
			gotRow := row.Alltoallv(r, sendRow, "stress/rowa2a")
			for src, part := range gotRow {
				want := []int64{int64(row.members[src]), int64(row.RankIn(r)), int64(round)}
				if !reflect.DeepEqual(part, want) {
					t.Errorf("round %d rank %d: rowa2a[%d] = %v, want %v", round, r.ID(), src, part, want)
				}
			}
			jitter(rng)
			gathered := row.Allgatherv(r, []int64{int64(r.ID() + round)}, "stress/rowag")
			for i, part := range gathered {
				if part[0] != int64(row.members[i]+round) {
					t.Errorf("round %d rank %d: rowag[%d] = %v", round, r.ID(), i, part)
				}
			}
			jitter(rng)
			// A world reduction closes the round, crossing traffic from
			// every subcommunicator through the shared rank ledgers.
			sum := grid.All.AllreduceSum(r, int64(r.ID()), "stress/sum")
			if want := int64(w.P * (w.P - 1) / 2); sum != want {
				t.Errorf("round %d rank %d: sum = %d, want %d", round, r.ID(), sum, want)
			}
			jitter(rng)
			// The level loop's two-word reduction, on the world group
			// and on a column subcommunicator.
			a, b := grid.All.AllreduceSum2(r, 1, int64(r.ID()+round), "stress/sum2")
			if wantB := int64(w.P*(w.P-1)/2 + w.P*round); a != int64(w.P) || b != wantB {
				t.Errorf("round %d rank %d: sum2 = (%d, %d), want (%d, %d)", round, r.ID(), a, b, w.P, wantB)
			}
			ca, cb := col.AllreduceSum2(r, int64(r.ID()), int64(round), "stress/colsum2")
			var wantCA int64
			for i := 0; i < len(col.members); i++ {
				wantCA += int64(col.members[i])
			}
			if ca != wantCA || cb != int64(pr*round) {
				t.Errorf("round %d rank %d: colsum2 = (%d, %d), want (%d, %d)", round, r.ID(), ca, cb, wantCA, pr*round)
			}
		}
	})
	return w.Stats()
}

// linkModel is a nonzero cost model so clock arithmetic (straggler
// booking, max folds) is exercised with distinguishable
// per-operation prices.
type linkModel struct{}

func (linkModel) Alltoallv(p int, s, r int64) float64 { return 1e-6*float64(p) + 1e-9*float64(s+r) }
func (linkModel) Allgatherv(p int, r int64) float64   { return 2e-6*float64(p) + 1e-9*float64(r) }
func (linkModel) Allreduce(p int, w int64) float64    { return 3e-6*float64(p) + 1e-9*float64(w) }
func (linkModel) Bcast(p int, w int64) float64        { return 4e-6*float64(p) + 1e-9*float64(w) }
func (linkModel) Gatherv(p int, r int64) float64      { return 5e-6*float64(p) + 1e-9*float64(r) }
func (linkModel) PointToPoint(w int64) float64        { return 7e-6 + 1e-9*float64(w) }

// TestRendezvousJitterDeterminism runs the grid schedule under two different jitter seeds and requires every
// simulated figure — clocks, per-tag communication times, volumes — to
// be bit-identical: host scheduling must never leak into the simulation.
func TestRendezvousJitterDeterminism(t *testing.T) {
	rounds := 40
	if testing.Short() {
		rounds = 10
	}
	a := runJitteredSchedule(t, 1, rounds)
	b := runJitteredSchedule(t, 99991, rounds)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("stats differ across host schedules:\n  a = %+v\n  b = %+v", a, b)
	}
	if a.MaxClock <= 0 || a.TotalSent == 0 || a.TotalRecvd == 0 {
		t.Errorf("degenerate stats: %+v", a)
	}
}

// TestRendezvousWorldReuse runs the jittered schedule twice over the
// same world with a Reset between, the session-reuse pattern: the
// second run must reproduce the first bit-for-bit even though the round
// buffers, wake channels, and scratch rows carry over warm.
func TestRendezvousWorldReuse(t *testing.T) {
	const pr, pc = 2, 3
	w := NewWorld(pr*pc, linkModel{})
	grid := NewGrid(w, pr, pc)
	run := func(seed int64) Stats {
		w.Reset()
		w.Run(func(r *Rank) {
			rng := rand.New(rand.NewSource(seed + int64(r.ID())))
			row := grid.RowGroup(r)
			for round := 0; round < 30; round++ {
				jitter(rng)
				grid.All.AllreduceSum(r, int64(r.ID()), "reuse/sum")
				jitter(rng)
				grid.All.AllreduceSum2(r, int64(r.ID()), int64(round), "reuse/sum2")
				jitter(rng)
				r.Charge(2e-6)
				row.Allgatherv(r, []int64{int64(r.ID())}, "reuse/ag")
				me := row.RankIn(r)
				row.AllgatherBitsBlocks(r, []uint64{uint64(round) + 1}, int64(me), int64(len(row.members)), "reuse/bits")
			}
		})
		return w.Stats()
	}
	a := run(7)
	b := run(123457)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("warm-reuse stats differ:\n  a = %+v\n  b = %+v", a, b)
	}
}

// TestRendezvousConcurrentSubgroups drives disjoint row groups at
// wildly different speeds — one row sleeps, the others spin — to push
// rounds of one group far ahead of its neighbors while they share the
// world group's rounds. Exercises the double-buffered round recycling
// under maximal skew.
func TestRendezvousConcurrentSubgroups(t *testing.T) {
	const pr, pc = 4, 2
	w := NewWorld(pr*pc, ZeroCost{})
	grid := NewGrid(w, pr, pc)
	w.Run(func(r *Rank) {
		row := grid.RowGroup(r)
		slow := grid.RowOf(r.ID()) == 0
		for round := 0; round < 200; round++ {
			if slow && round%10 == 0 {
				time.Sleep(200 * time.Microsecond)
			}
			parts := row.Allgatherv(r, []int64{int64(r.ID() * (round + 1))}, "skew/row")
			for i, part := range parts {
				if part[0] != int64(row.members[i]*(round+1)) {
					t.Errorf("round %d rank %d: parts[%d] = %v", round, r.ID(), i, part)
				}
			}
		}
		// All rows reconverge on the world group after maximal skew.
		sum := grid.All.AllreduceSum(r, 1, "skew/sum")
		if sum != int64(w.P) {
			t.Errorf("rank %d: reconverge sum = %d", r.ID(), sum)
		}
	})
}
