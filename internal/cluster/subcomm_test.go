package cluster

import (
	"testing"

	"repro/internal/netmodel"
)

// TestGridSubcommMembership pins the membership and ordering contract of
// the row/column subcommunicators on a rectangular grid.
func TestGridSubcommMembership(t *testing.T) {
	w := NewWorld(6, ZeroCost{})
	g := NewGrid(w, 2, 3)
	for i := 0; i < 2; i++ {
		row := g.Rows[i]
		if len(row.members) != 3 {
			t.Fatalf("row %d size = %d, want 3", i, len(row.members))
		}
		for j := 0; j < 3; j++ {
			if row.members[j] != i*3+j {
				t.Errorf("row %d member %d = %d, want %d", i, j, row.members[j], i*3+j)
			}
		}
	}
	for j := 0; j < 3; j++ {
		col := g.Cols[j]
		if len(col.members) != 2 {
			t.Fatalf("col %d size = %d, want 2", j, len(col.members))
		}
		for i := 0; i < 2; i++ {
			if col.members[i] != i*3+j {
				t.Errorf("col %d member %d = %d, want %d", j, i, col.members[i], i*3+j)
			}
		}
	}
	w.Run(func(r *Rank) {
		if g.RowGroup(r) != g.Rows[g.RowOf(r.ID())] {
			t.Errorf("rank %d: RowGroup != Rows[RowOf]", r.ID())
		}
		if g.ColGroup(r) != g.Cols[g.ColOf(r.ID())] {
			t.Errorf("rank %d: ColGroup != Cols[ColOf]", r.ID())
		}
	})
}

// TestSubcommCollectivesConcurrent runs independent collectives on every
// row and column subcommunicator of a rectangular grid in the same
// round: the reductions must stay scoped to their subgroup.
func TestSubcommCollectivesConcurrent(t *testing.T) {
	const pr, pc = 3, 4
	w := NewWorld(pr*pc, ZeroCost{})
	g := NewGrid(w, pr, pc)
	w.Run(func(r *Rank) {
		i, j := g.RowOf(r.ID()), g.ColOf(r.ID())
		rowSum := g.RowGroup(r).AllreduceSum(r, int64(r.ID()), "row")
		var wantRow int64
		for k := 0; k < pc; k++ {
			wantRow += int64(i*pc + k)
		}
		if rowSum != wantRow {
			t.Errorf("rank %d: row sum %d, want %d", r.ID(), rowSum, wantRow)
		}
		colSum := g.ColGroup(r).AllreduceSum(r, int64(r.ID()), "col")
		var wantCol int64
		for k := 0; k < pr; k++ {
			wantCol += int64(k*pc + j)
		}
		if colSum != wantCol {
			t.Errorf("rank %d: col sum %d, want %d", r.ID(), colSum, wantCol)
		}
	})
}

// TestSubcommPricedOnSubgroupSize checks that a subcommunicator
// collective is priced for its member count, not the world size, and
// that the time lands in the parent world's ledgers where World.Reset
// can clear it.
func TestSubcommPricedOnSubgroupSize(t *testing.T) {
	const pr, pc = 2, 4
	m := netmodel.Franklin()
	w := NewWorld(pr*pc, m)
	g := NewGrid(w, pr, pc)
	const words = 512
	w.Run(func(r *Rank) {
		g.RowGroup(r).AllgatherBitsBlocks(r, make([]uint64, words/pc),
			int64(g.ColOf(r.ID()))*words/pc, words, "rowbitmap")
	})
	st := w.Stats()
	want := m.Allgatherv(pc, words)
	if got := st.CommByTag["rowbitmap"]; got != want {
		t.Errorf("row bitmap cost %v, want Allgatherv(pc=%d) cost %v", got, pc, want)
	}
	if dense := m.Allgatherv(pr*pc, words); want == dense {
		t.Fatalf("test vacuous: subgroup and world allgather cost identically (%v)", dense)
	}
	w.Reset()
	for _, c := range w.Stats().CommTime {
		if c != 0 {
			t.Fatalf("World.Reset left subcommunicator comm time %v", c)
		}
	}
}

// TestAllgatherBitsBlocks checks the assembled OR of word-range
// deposits, including a word shared by two adjacent members and a
// member with an empty deposit.
func TestAllgatherBitsBlocks(t *testing.T) {
	const p = 3
	const total = 6
	w := NewWorld(p, ZeroCost{})
	got := make([][]uint64, p)
	w.Run(func(r *Rank) {
		g := w.WorldGroup()
		for round := 0; round < 2; round++ {
			var dep []uint64
			var off int64
			switch r.ID() {
			case 0: // words [0,3): bit 1 of word 0, low half of word 2
				dep, off = []uint64{2, 0, 0x00000000ffffffff}, 0
			case 1: // words [2,5): high half of word 2 (shared), word 4
				dep, off = []uint64{0xffffffff00000000, 0, 7}, 2
			case 2: // empty deposit at the end of the range
				dep, off = nil, total
			}
			out := g.AllgatherBitsBlocks(r, dep, off, total, "bitmap")
			got[r.ID()] = append(got[r.ID()][:0], out...)
		}
	})
	want := []uint64{2, 0, ^uint64(0), 0, 7, 0}
	for id, bm := range got {
		if len(bm) != total {
			t.Fatalf("rank %d: got %d words, want %d", id, len(bm), total)
		}
		for k := range want {
			if bm[k] != want[k] {
				t.Errorf("rank %d word %d = %#x, want %#x", id, k, bm[k], want[k])
			}
		}
	}
}

// TestAllgatherBitsBlocksOutOfRangePoisons: a deposit that overruns the
// declared bitmap must surface on every participant, not deadlock.
func TestAllgatherBitsBlocksOutOfRangePoisons(t *testing.T) {
	w := NewWorld(2, ZeroCost{})
	defer func() {
		if recover() == nil {
			t.Error("out-of-range deposit did not surface")
		}
	}()
	w.Run(func(r *Rank) {
		g := w.WorldGroup()
		g.AllgatherBitsBlocks(r, make([]uint64, 4), int64(r.ID())*4, 6, "bitmap")
	})
}

// TestAllgatherBitsBlocksTotalMismatchPoisons: members disagreeing on
// the bitmap length must fail deterministically (whichever member
// completes the round, the mismatch is against its own view), not
// return a nondeterministically sized slice.
func TestAllgatherBitsBlocksTotalMismatchPoisons(t *testing.T) {
	w := NewWorld(2, ZeroCost{})
	defer func() {
		if recover() == nil {
			t.Error("totalWords mismatch did not surface")
		}
	}()
	w.Run(func(r *Rank) {
		g := w.WorldGroup()
		g.AllgatherBitsBlocks(r, make([]uint64, 4), 0, int64(8+8*r.ID()), "bitmap")
	})
}
