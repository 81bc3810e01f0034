package spmat

import (
	"testing"
	"testing/quick"

	"repro/internal/bits"
	"repro/internal/prng"
	"repro/internal/smp"
	"repro/internal/spvec"
)

// randTriples generates a random block pattern.
func randTriples(rng *prng.Xoshiro256, rows, cols int64, m int) []Triple {
	ts := make([]Triple, 0, m)
	for i := 0; i < m; i++ {
		ts = append(ts, Triple{Row: rng.Int64n(rows), Col: rng.Int64n(cols)})
	}
	return ts
}

// pullOracle computes the expected pull result straight from the triple
// definition: for every unvisited row, the smallest frontier in-neighbor
// (the kernel scans columns in ascending order and stops at the first
// hit).
func pullOracle(rows int64, ts []Triple, frontier, visited *bits.Bitmap, visRowOff, colOff int64) *spvec.Vec {
	adj := make(map[int64][]int64)
	seen := make(map[Triple]bool)
	for _, t := range ts {
		if seen[t] {
			continue
		}
		seen[t] = true
		adj[t.Row] = append(adj[t.Row], t.Col)
	}
	out := &spvec.Vec{}
	for r := int64(0); r < rows; r++ {
		if visited.Get(visRowOff + r) {
			continue
		}
		best := int64(-1)
		for _, c := range adj[r] {
			if frontier.Get(colOff+c) && (best == -1 || c < best) {
				best = c
			}
		}
		if best >= 0 {
			out.Append(r, colOff+best)
		}
	}
	return out
}

func vecsEqual(a, b *spvec.Vec) bool {
	if len(a.Ind) != len(b.Ind) {
		return false
	}
	for i := range a.Ind {
		if a.Ind[i] != b.Ind[i] || a.Val[i] != b.Val[i] {
			return false
		}
	}
	return true
}

func TestPullViewRoundTrip(t *testing.T) {
	rng := prng.New(7)
	ts := randTriples(rng, 40, 30, 200)
	d, err := NewDCSC(40, 30, append([]Triple(nil), ts...))
	if err != nil {
		t.Fatal(err)
	}
	pv := d.PullView()
	if int64(len(pv.ColInd)) != d.NNZ() {
		t.Fatalf("pull view nnz %d != dcsc nnz %d", int64(len(pv.ColInd)), d.NNZ())
	}
	// Every (row, col) present in the DCSC must appear exactly once in
	// the row-major view, with ascending columns per row.
	count := 0
	for r := int64(0); r < 40; r++ {
		prev := int64(-1)
		for k := pv.RowPtr[r]; k < pv.RowPtr[r+1]; k++ {
			c := int64(pv.ColInd[k])
			if c <= prev {
				t.Fatalf("row %d columns not strictly ascending", r)
			}
			prev = c
			count++
		}
	}
	if int64(count) != d.NNZ() {
		t.Fatalf("row pointers cover %d entries, want %d", count, d.NNZ())
	}
}

func TestPullMatchesOracle(t *testing.T) {
	check := func(seed uint64) bool {
		rng := prng.New(seed)
		rows := rng.Int64n(60) + 1
		cols := rng.Int64n(60) + 1
		ts := randTriples(rng, rows, cols, rng.Intn(300))
		visRowOff := rng.Int64n(20)
		colOff := rng.Int64n(20)
		frontier := bits.NewBitmap(colOff + cols)
		visited := bits.NewBitmap(visRowOff + rows)
		for c := int64(0); c < cols; c++ {
			if rng.Intn(3) == 0 {
				frontier.Set(colOff + c)
			}
		}
		for r := int64(0); r < rows; r++ {
			if rng.Intn(4) == 0 {
				visited.Set(visRowOff + r)
			}
		}
		d, err := NewDCSC(rows, cols, append([]Triple(nil), ts...))
		if err != nil {
			return false
		}
		var dst spvec.Vec
		scanned := d.PullView().Pull(&dst, frontier, visited, visRowOff, colOff)
		if scanned < 0 || scanned > d.NNZ() {
			return false
		}
		return vecsEqual(&dst, pullOracle(rows, ts, frontier, visited, visRowOff, colOff))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPullEarlyExitScansLess(t *testing.T) {
	// A single dense row whose first column is in the frontier: the pull
	// must examine exactly one entry.
	var ts []Triple
	for c := int64(0); c < 100; c++ {
		ts = append(ts, Triple{Row: 0, Col: c})
	}
	d, err := NewDCSC(1, 100, ts)
	if err != nil {
		t.Fatal(err)
	}
	frontier := bits.NewBitmap(100)
	frontier.Set(0)
	var dst spvec.Vec
	scanned := d.PullView().Pull(&dst, frontier, bits.NewBitmap(1), 0, 0)
	if scanned != 1 {
		t.Errorf("early exit scanned %d entries, want 1", scanned)
	}
	if dst.NNZ() != 1 || dst.Ind[0] != 0 || dst.Val[0] != 0 {
		t.Errorf("unexpected pull result %+v", dst)
	}
}

// TestPullSplitMatchesWhole checks that the strip-parallel pull over a
// RowSplit equals the single-strip pull, flat and pooled.
func TestPullSplitMatchesWhole(t *testing.T) {
	rng := prng.New(23)
	const rows, cols = 97, 53
	ts := randTriples(rng, rows, cols, 600)
	frontier := bits.NewBitmap(cols)
	visited := bits.NewBitmap(rows)
	for c := int64(0); c < cols; c += 3 {
		frontier.Set(c)
	}
	for r := int64(0); r < rows; r += 5 {
		visited.Set(r)
	}
	whole, err := NewRowSplit(rows, cols, append([]Triple(nil), ts...), 1)
	if err != nil {
		t.Fatal(err)
	}
	var want spvec.Vec
	wantScanned := whole.PullView().Pull(&want, frontier, visited, 0, 0, nil, nil)

	for _, threads := range []int{2, 4, 7} {
		rs, err := NewRowSplit(rows, cols, append([]Triple(nil), ts...), threads)
		if err != nil {
			t.Fatal(err)
		}
		ps := rs.PullView()
		var scratch PullScratch
		pool := smp.NewPool(threads)
		var got spvec.Vec
		scanned := ps.Pull(&got, frontier, visited, 0, 0, pool, &scratch)
		pool.Close()
		if !vecsEqual(&got, &want) {
			t.Fatalf("threads=%d: strip pull diverges from whole pull", threads)
		}
		if scanned != wantScanned {
			t.Fatalf("threads=%d: scanned %d, want %d", threads, scanned, wantScanned)
		}
	}
}
