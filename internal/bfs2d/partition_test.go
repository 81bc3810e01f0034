package bfs2d

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/prng"
)

// The reference lookups: estimate the block from the proportion, then
// step one block at a time until v lies within its bounds. The closed
// forms in partition.go must agree with them everywhere.

func rowBlockLoop(pt Part2D, v int64) int {
	i := int(v * int64(pt.Pr) / pt.N)
	for v < pt.RowStart(i) {
		i--
	}
	for v >= pt.RowStart(i+1) {
		i++
	}
	return i
}

func colBlockLoop(pt Part2D, v int64) int {
	j := int(v * int64(pt.Pc) / pt.N)
	for v < pt.ColStart(j) {
		j--
	}
	for v >= pt.ColStart(j+1) {
		j++
	}
	return j
}

// subColStart returns the first global index of sub-piece i of column
// block j: within column block j, the pr sub-pieces partition the
// block's column range evenly.
func subColStart(pt Part2D, j, i int) int64 {
	lo, hi := pt.ColStart(j), pt.ColStart(j+1)
	return lo + (hi-lo)*int64(i)/int64(pt.Pr)
}

func transposeOwnerLoop(pt Part2D, v int64) (i, j int) {
	j = colBlockLoop(pt, v)
	lo, hi := pt.ColStart(j), pt.ColStart(j+1)
	i = int((v - lo) * int64(pt.Pr) / (hi - lo))
	for v < subColStart(pt, j, i) {
		i--
	}
	for v >= subColStart(pt, j, i+1) {
		i++
	}
	return i, j
}

func vecOwnerLoop(pt Part2D, v int64) (i, j int) {
	i = rowBlockLoop(pt, v)
	lo, hi := pt.RowStart(i), pt.RowStart(i+1)
	j = int((v - lo) * int64(pt.Pc) / (hi - lo))
	for v < pt.VecStart(i, j) {
		j--
	}
	for v >= pt.VecStart(i, j+1) {
		j++
	}
	return i, j
}

// lookupMismatch compares every closed-form lookup at v with its loop
// and describes the first disagreement, or returns "" if there is none.
func lookupMismatch(pt Part2D, v int64) string {
	if got, want := pt.RowBlockOf(v), rowBlockLoop(pt, v); got != want {
		return fmt.Sprintf("RowBlockOf(%d) = %d, want %d", v, got, want)
	}
	if got, want := pt.ColBlockOf(v), colBlockLoop(pt, v); got != want {
		return fmt.Sprintf("ColBlockOf(%d) = %d, want %d", v, got, want)
	}
	gi, gj := pt.TransposeOwner(v)
	if wi, wj := transposeOwnerLoop(pt, v); gi != wi || gj != wj {
		return fmt.Sprintf("TransposeOwner(%d) = (%d,%d), want (%d,%d)", v, gi, gj, wi, wj)
	}
	gi, gj = pt.VecOwner(v)
	if wi, wj := vecOwnerLoop(pt, v); gi != wi || gj != wj {
		return fmt.Sprintf("VecOwner(%d) = (%d,%d), want (%d,%d)", v, gi, gj, wi, wj)
	}
	return ""
}

func TestPart2DStructure(t *testing.T) {
	pt := Part2D{N: 101, Pr: 4, Pc: 4}
	if err := pt.Validate(); err != nil {
		t.Fatal(err)
	}
	// Owned ranges tile [0, N) exactly, in grid order row-major by piece.
	var covered int64
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			lo, hi := pt.OwnedRange(i, j)
			covered += hi - lo
			for v := lo; v < hi; v++ {
				oi, oj := pt.VecOwner(v)
				if oi != i || oj != j {
					t.Fatalf("vertex %d: VecOwner = (%d,%d), want (%d,%d)", v, oi, oj, i, j)
				}
			}
		}
	}
	if covered != 101 {
		t.Errorf("owned ranges cover %d of 101", covered)
	}
	for v := int64(0); v < 101; v++ {
		i := pt.RowBlockOf(v)
		if v < pt.RowStart(i) || v >= pt.RowStart(i+1) {
			t.Fatalf("RowBlockOf(%d) = %d out of range", v, i)
		}
		j := pt.ColBlockOf(v)
		if v < pt.ColStart(j) || v >= pt.ColStart(j+1) {
			t.Fatalf("ColBlockOf(%d) = %d out of range", v, j)
		}
	}
}

func TestPart2DProperty(t *testing.T) {
	check := func(seed uint64) bool {
		rng := prng.New(seed)
		pt := Part2D{N: rng.Int64n(5000) + 16, Pr: rng.Intn(6) + 1, Pc: rng.Intn(6) + 1}
		var covered int64
		for i := 0; i < pt.Pr; i++ {
			for j := 0; j < pt.Pc; j++ {
				lo, hi := pt.OwnedRange(i, j)
				if hi < lo {
					return false
				}
				covered += hi - lo
			}
		}
		return covered == pt.N
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestLookupsMatchLoops checks every closed-form lookup against its
// correction loop for every vertex of every grid with n ≤ 700,
// pr, pc ≤ 17 and pr·pc ≤ n. One subtest per grid height runs in
// parallel with the others.
func TestLookupsMatchLoops(t *testing.T) {
	for pr := 1; pr <= 17; pr++ {
		pr := pr
		t.Run(fmt.Sprintf("pr=%d", pr), func(t *testing.T) {
			t.Parallel()
			for n := int64(pr); n <= 700; n++ {
				for pc := 1; pc <= 17 && int64(pr*pc) <= n; pc++ {
					pt := Part2D{N: n, Pr: pr, Pc: pc}
					for v := int64(0); v < n; v++ {
						if msg := lookupMismatch(pt, v); msg != "" {
							t.Fatalf("n=%d %dx%d: %s", n, pr, pc, msg)
						}
					}
				}
			}
		})
	}
}

// TestLookupBlockEdges checks the first and last vertex of every row
// block, column block, vector piece and transpose sub-piece at sizes up
// to past 2^40, on column, row and near-square grids of up to the
// paper's 40,000 Hopper cores. Only the lookups are exercised, so the
// blocks may exceed the uint32 local-id limit Validate also enforces.
func TestLookupBlockEdges(t *testing.T) {
	for _, n := range []int64{1 << 16, 1 << 32, 1<<40 + 7} {
		for _, p := range []int{16, 17, 1000, 40000} {
			sq := int(math.Sqrt(float64(p)))
			for _, g := range [][2]int{{p, 1}, {1, p}, {sq, p / sq}} {
				pt := Part2D{N: n, Pr: g[0], Pc: g[1]}
				var edges []int64
				for i := 0; i < pt.Pr; i++ {
					edges = append(edges, pt.RowStart(i), pt.RowStart(i+1)-1)
					for j := 0; j < pt.Pc; j++ {
						lo, hi := pt.OwnedRange(i, j)
						edges = append(edges, lo, hi-1)
					}
				}
				for j := 0; j < pt.Pc; j++ {
					edges = append(edges, pt.ColStart(j), pt.ColStart(j+1)-1)
					for i := 0; i < pt.Pr; i++ {
						edges = append(edges, subColStart(pt, j, i), subColStart(pt, j, i+1)-1)
					}
				}
				for _, v := range edges {
					if msg := lookupMismatch(pt, v); msg != "" {
						t.Fatalf("n=%d %dx%d: %s", n, pt.Pr, pt.Pc, msg)
					}
				}
			}
		}
	}
}

// TestPart2DValidateProduct checks that Validate refuses a partition
// whose n·max(pr, pc) reaches 2^63, past which the lookups' products
// would wrap, including grids whose blocks would otherwise fit.
func TestPart2DValidateProduct(t *testing.T) {
	for _, tc := range []struct {
		pt Part2D
		ok bool
	}{
		{Part2D{N: 1 << 62, Pr: 4, Pc: 1}, false},
		{Part2D{N: 1 << 62, Pr: 1, Pc: 4}, false},
		// 2^24-row blocks fit uint32 local ids; only the product fails.
		{Part2D{N: 1 << 44, Pr: 1 << 20, Pc: 1 << 20}, false},
		{Part2D{N: 1<<44 - 1, Pr: 1 << 19, Pc: 1 << 19}, true},
		// The paper's largest Hopper run: 2^32 vertices on 40,000 cores.
		{Part2D{N: 1 << 32, Pr: 200, Pc: 200}, true},
		{Part2D{N: 1 << 32, Pr: 40000, Pc: 1}, true},
	} {
		if err := tc.pt.Validate(); (err == nil) != tc.ok {
			t.Errorf("Validate(n=%d, %dx%d) = %v, want ok=%v", tc.pt.N, tc.pt.Pr, tc.pt.Pc, err, tc.ok)
		}
	}
}

// FuzzPart2DOwners checks that, on any valid grid, VecOwner lands v in
// its owner's OwnedRange and TransposeOwner lands it in the
// subColStart piece of its collecting process.
func FuzzPart2DOwners(f *testing.F) {
	f.Add(int64(101), 4, 4, int64(0))
	f.Add(int64(103), 2, 3, int64(102))
	f.Add(int64(1<<32), 200, 200, int64(1<<31+5))
	f.Add(int64(1<<40+7), 1<<12, 1<<10, int64(1<<40))
	f.Fuzz(func(t *testing.T, n int64, pr, pc int, v int64) {
		pt := Part2D{N: n, Pr: pr, Pc: pc}
		if pt.Validate() != nil {
			return
		}
		if v %= n; v < 0 {
			v += n
		}
		i, j := pt.VecOwner(v)
		if i < 0 || i >= pr || j < 0 || j >= pc {
			t.Fatalf("n=%d %dx%d: VecOwner(%d) = (%d,%d), off the grid", n, pr, pc, v, i, j)
		}
		if lo, hi := pt.OwnedRange(i, j); v < lo || v >= hi {
			t.Fatalf("n=%d %dx%d: VecOwner(%d) = (%d,%d), whose range is [%d,%d)", n, pr, pc, v, i, j, lo, hi)
		}
		i, j = pt.TransposeOwner(v)
		if i < 0 || i >= pr || j < 0 || j >= pc {
			t.Fatalf("n=%d %dx%d: TransposeOwner(%d) = (%d,%d), off the grid", n, pr, pc, v, i, j)
		}
		if lo, hi := subColStart(pt, j, i), subColStart(pt, j, i+1); v < lo || v >= hi {
			t.Fatalf("n=%d %dx%d: TransposeOwner(%d) = (%d,%d), whose piece is [%d,%d)", n, pr, pc, v, i, j, lo, hi)
		}
	})
}
