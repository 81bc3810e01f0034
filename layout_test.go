package pbfs

import (
	"strings"
	"testing"
)

// TestResolveLayoutGridOverflow: a grid whose row-by-column product
// overflows int is refused, whether it implies the rank count or must
// factor an explicit one. Only layouts are resolved; no engine is built.
func TestResolveLayoutGridOverflow(t *testing.T) {
	for _, c := range []struct {
		name string
		opt  Options
	}{
		// 2^32·2^32 wraps to 0 ranks.
		{"implied ranks", Options{Algorithm: TwoDFlat, GridRows: 1 << 32, GridCols: 1 << 32}},
		// (2^32+1)·2^32 wraps to 2^32, the requested rank count.
		{"explicit ranks", Options{Algorithm: TwoDFlat, Ranks: 1 << 32, GridRows: 1<<32 + 1, GridCols: 1 << 32}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if lay, err := resolveLayout(c.opt); err == nil {
				t.Fatalf("grid %dx%d resolved to %d ranks (%dx%d), want an error",
					c.opt.GridRows, c.opt.GridCols, lay.ranks, lay.pr, lay.pc)
			}
		})
	}
}

// TestResolveLayoutNamesBadAlgorithm: an algorithm outside the six is
// refused with an error that prints its number, since its String() is
// only "unknown".
func TestResolveLayoutNamesBadAlgorithm(t *testing.T) {
	for _, c := range []struct {
		algo Algorithm
		want string
	}{
		{Algorithm(99), "pbfs: unknown algorithm 99"},
		{Algorithm(-1), "pbfs: unknown algorithm -1"},
		{Algorithm(6), "pbfs: unknown algorithm 6"},
	} {
		_, err := resolveLayout(Options{Algorithm: c.algo})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("algorithm %d: error %v, want %q", int(c.algo), err, c.want)
		}
	}
}

// FuzzResolveLayout checks every layout resolveLayout accepts: at least
// one rank and one thread, a 2D grid that factors the rank count
// exactly, and a canonical spelling that resolves to the same layout.
// It resolves layouts only, so no world or goroutine is started.
func FuzzResolveLayout(f *testing.F) {
	f.Add(int(TwoDFlat), 0, 1<<32, 1<<32, 0, "")
	f.Add(int(TwoDFlat), 1<<32, 1<<32+1, 1<<32, 0, "")
	f.Add(int(TwoDHybrid), 16, 0, 0, 0, "franklin")
	f.Add(int(TwoDFlat), 6, 2, 0, 0, "")
	f.Add(int(OneDHybrid), 0, 3, 5, 2, "hopper")
	f.Fuzz(func(t *testing.T, algo, ranks, rows, cols, threads int, machine string) {
		// Fuzzed rank counts stay below 2^40 so ClosestSquare's
		// downward search stays cheap; the grid ranges over all of int.
		opt := Options{Algorithm: Algorithm(algo), Ranks: ranks % (1 << 40),
			GridRows: rows, GridCols: cols, Threads: threads, Machine: machine}
		lay, err := resolveLayout(opt)
		if err != nil {
			return
		}
		if lay.ranks < 1 || lay.threads < 1 {
			t.Fatalf("%+v resolved to %d ranks, %d threads", opt, lay.ranks, lay.threads)
		}
		if lay.algo == TwoDFlat || lay.algo == TwoDHybrid {
			if lay.pr < 1 || lay.pc < 1 || lay.ranks%lay.pr != 0 || lay.ranks/lay.pr != lay.pc {
				t.Fatalf("%+v resolved to grid %dx%d for %d ranks", opt, lay.pr, lay.pc, lay.ranks)
			}
		}
		canon := Options{Algorithm: lay.algo, Ranks: lay.ranks, GridRows: lay.pr, GridCols: lay.pc,
			Threads: lay.threads, Machine: lay.machine}
		again, err := resolveLayout(canon)
		if err != nil || again != lay {
			t.Fatalf("%+v resolved to %+v; its canonical spelling resolved to %+v, %v", opt, lay, again, err)
		}
	})
}
