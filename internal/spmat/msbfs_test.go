package spmat

import (
	"testing"
	"testing/quick"

	"repro/internal/bits"
	"repro/internal/prng"
	"repro/internal/smp"
	"repro/internal/spvec"
)

// randMaskFrontier builds a sorted-unique mask frontier over cols columns
// with the given batch width; parents encode the column's global id so
// claims are checkable.
func randMaskFrontier(rng *prng.Xoshiro256, cols, colOff int64, width uint) *spvec.MaskVec {
	f := &spvec.MaskVec{}
	for c := int64(0); c < cols; c++ {
		if rng.Intn(3) != 0 {
			continue
		}
		m := rng.Uint64()
		if width < 64 {
			m &= 1<<width - 1
		}
		if m == 0 {
			m = 1
		}
		f.Append(c, m, colOff+c)
	}
	return f
}

// perSearchVec projects search s of a mask frontier onto a scalar Vec.
func perSearchVec(f *spvec.MaskVec, s uint) *spvec.Vec {
	v := &spvec.Vec{}
	for i, ind := range f.Ind {
		if f.Mask[i]&(1<<s) != 0 {
			v.Append(ind, f.Par[i])
		}
	}
	return v
}

// TestSpMSVMasksMatchesPerSearch checks the batched top-down kernel
// against 64 scalar SpMSV runs: per search, the discovered row sets must
// be identical, every claimed parent must be a frontier column of that
// search adjacent to the row, and no (row, search) pair may be claimed
// twice.
func TestSpMSVMasksMatchesPerSearch(t *testing.T) {
	check := func(seed uint64) bool {
		rng := prng.New(seed)
		rows := rng.Int64n(50) + 1
		cols := rng.Int64n(50) + 1
		width := uint(rng.Intn(64) + 1)
		ts := randTriples(rng, rows, cols, rng.Intn(250))
		d, err := NewDCSC(rows, cols, append([]Triple(nil), ts...))
		if err != nil {
			return false
		}
		f := randMaskFrontier(rng, cols, 100, width)

		var sc MaskScratch
		var dst spvec.MaskVec
		d.SpMSVMasks(&dst, f, &sc)

		adj := make(map[[2]int64]bool) // (row, global col) stored entries
		for j := range d.JC {
			for _, r := range d.colRowsAt(j) {
				adj[[2]int64{int64(r), 100 + d.JC[j]}] = true
			}
		}
		claimed := make(map[[2]int64]int64) // (row, search) -> parent
		for e, r := range dst.Ind {
			if dst.Mask[e] == 0 {
				return false
			}
			for s := uint(0); s < 64; s++ {
				if dst.Mask[e]&(1<<s) == 0 {
					continue
				}
				key := [2]int64{r, int64(s)}
				if _, dup := claimed[key]; dup {
					return false
				}
				if !adj[[2]int64{r, dst.Par[e]}] {
					return false // parent not adjacent to the row
				}
				claimed[key] = dst.Par[e]
			}
		}
		// Per search: claimed rows must equal the scalar kernel's rows,
		// and the claimed parent must be in that search's frontier.
		for s := uint(0); s < width; s++ {
			fv := perSearchVec(f, s)
			inFront := make(map[int64]bool)
			for _, p := range fv.Val {
				inFront[p] = true
			}
			var want spvec.Vec
			d.SpMSV(&want, fv, SpMSVOpts{})
			rowsGot := make(map[int64]bool)
			for key, par := range claimed {
				if key[1] != int64(s) {
					continue
				}
				if !inFront[par] {
					return false
				}
				rowsGot[key[0]] = true
			}
			if len(rowsGot) != len(want.Ind) {
				return false
			}
			for _, r := range want.Ind {
				if !rowsGot[r] {
					return false
				}
			}
		}
		// The shared scan is priced once for the whole batch: never more
		// than the sum of per-search work.
		var perSearchWork int64
		for s := uint(0); s < width; s++ {
			perSearchWork += d.Work(perSearchVec(f, s))
		}
		batched := d.SpMSVMasks(&spvec.MaskVec{}, f, nil)
		return batched <= perSearchWork || perSearchWork == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestSpMSVMasksRowSplitMatchesWhole checks that the strip-parallel
// batched product equals the single-strip one per (row, search) claim,
// pooled and serial.
func TestSpMSVMasksRowSplitMatchesWhole(t *testing.T) {
	rng := prng.New(31)
	const rows, cols = 83, 47
	ts := randTriples(rng, rows, cols, 500)
	f := randMaskFrontier(rng, cols, 0, 64)
	whole, err := NewDCSC(rows, cols, append([]Triple(nil), ts...))
	if err != nil {
		t.Fatal(err)
	}
	var want spvec.MaskVec
	wholeWork := whole.SpMSVMasks(&want, f, nil)
	wantClaims := claimSet(&want)

	for _, threads := range []int{2, 4, 7} {
		rs, err := NewRowSplit(rows, cols, append([]Triple(nil), ts...), threads)
		if err != nil {
			t.Fatal(err)
		}
		var msc MaskRowScratch
		pool := smp.NewPool(threads)
		var got spvec.MaskVec
		work := rs.SpMSVMasks(&got, f, pool, &msc)
		pool.Close()
		if work != wholeWork {
			t.Fatalf("threads=%d: split work %d, whole %d", threads, work, wholeWork)
		}
		gotClaims := claimSet(&got)
		if len(gotClaims) != len(wantClaims) {
			t.Fatalf("threads=%d: %d claims, want %d", threads, len(gotClaims), len(wantClaims))
		}
		for k := range wantClaims {
			if _, ok := gotClaims[k]; !ok {
				t.Fatalf("threads=%d: claim %v missing", threads, k)
			}
		}
		// Same pool, run twice: deterministic output order.
		pool2 := smp.NewPool(threads)
		var again spvec.MaskVec
		rs.SpMSVMasks(&again, f, pool2, &msc)
		pool2.Close()
		if len(again.Ind) != len(got.Ind) {
			t.Fatalf("threads=%d: nondeterministic entry count", threads)
		}
		for i := range got.Ind {
			if got.Ind[i] != again.Ind[i] || got.Mask[i] != again.Mask[i] || got.Par[i] != again.Par[i] {
				t.Fatalf("threads=%d: nondeterministic entry %d", threads, i)
			}
		}
	}
}

func claimSet(v *spvec.MaskVec) map[[2]int64]bool {
	m := make(map[[2]int64]bool)
	for e, r := range v.Ind {
		for s := uint(0); s < 64; s++ {
			if v.Mask[e]&(1<<s) != 0 {
				m[[2]int64{r, int64(s)}] = true
			}
		}
	}
	return m
}

// TestPullMasksMatchesPerSearch checks the batched pull against the
// scalar pull per search: identical (row, parent) claims, since both
// stop at the ascending-first frontier column.
func TestPullMasksMatchesPerSearch(t *testing.T) {
	check := func(seed uint64) bool {
		rng := prng.New(seed)
		rows := rng.Int64n(50) + 1
		cols := rng.Int64n(50) + 1
		width := uint(rng.Intn(64) + 1)
		visRowOff := rng.Int64n(10)
		colOff := rng.Int64n(10)
		ts := randTriples(rng, rows, cols, rng.Intn(250))
		d, err := NewDCSC(rows, cols, append([]Triple(nil), ts...))
		if err != nil {
			return false
		}
		pv := d.PullView()
		frontier := make([]uint64, colOff+cols)
		visited := make([]uint64, visRowOff+rows)
		lim := uint64(1)<<width - 1
		if width == 64 {
			lim = ^uint64(0)
		}
		for c := range frontier {
			frontier[c] = rng.Uint64() & lim & rng.Uint64()
		}
		for r := range visited {
			visited[r] = rng.Uint64() & lim & rng.Uint64()
		}
		active := rng.Uint64() & lim
		var dst spvec.MaskVec
		scanned := pv.PullMasks(&dst, frontier, visited, active, visRowOff, colOff)
		if scanned < 0 || scanned > d.NNZ() {
			return false
		}
		// Project each search and compare with the scalar kernel.
		for s := uint(0); s < width; s++ {
			fb := bits.NewBitmap(int64(len(frontier)))
			vb := bits.NewBitmap(int64(len(visited)))
			for c := range frontier {
				if frontier[c]&(1<<s) != 0 {
					fb.Set(int64(c))
				}
			}
			for r := range visited {
				if visited[r]&(1<<s) != 0 {
					vb.Set(int64(r))
				}
			}
			var want spvec.Vec
			pv.Pull(&want, fb, vb, visRowOff, colOff)
			got := map[int64]int64{}
			for e, r := range dst.Ind {
				if dst.Mask[e]&(1<<s) != 0 {
					if _, dup := got[r]; dup {
						return false
					}
					got[r] = dst.Par[e]
				}
			}
			if active&(1<<s) == 0 {
				if len(got) != 0 {
					return false // retired search must not discover
				}
				continue
			}
			if len(got) != len(want.Ind) {
				return false
			}
			for i, r := range want.Ind {
				if got[r] != want.Val[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPullMasksEarlyExit pins the batched early exit: one dense row, all
// searches' frontiers holding column 0, must scan exactly one entry.
func TestPullMasksEarlyExit(t *testing.T) {
	var ts []Triple
	for c := int64(0); c < 100; c++ {
		ts = append(ts, Triple{Row: 0, Col: c})
	}
	d, err := NewDCSC(1, 100, ts)
	if err != nil {
		t.Fatal(err)
	}
	frontier := make([]uint64, 100)
	frontier[0] = ^uint64(0)
	visited := make([]uint64, 1)
	var dst spvec.MaskVec
	scanned := d.PullView().PullMasks(&dst, frontier, visited, ^uint64(0), 0, 0)
	if scanned != 1 {
		t.Errorf("early exit scanned %d entries, want 1", scanned)
	}
	if dst.NNZ() != 1 || dst.Ind[0] != 0 || dst.Mask[0] != ^uint64(0) || dst.Par[0] != 0 {
		t.Errorf("unexpected result %+v", dst)
	}
}

// TestPullMasksSplitMatchesWhole checks the strip-parallel batched pull
// against the single-strip one.
func TestPullMasksSplitMatchesWhole(t *testing.T) {
	rng := prng.New(41)
	const rows, cols = 97, 53
	ts := randTriples(rng, rows, cols, 600)
	frontier := make([]uint64, cols)
	visited := make([]uint64, rows)
	for c := range frontier {
		frontier[c] = rng.Uint64() & rng.Uint64()
	}
	for r := range visited {
		visited[r] = rng.Uint64() & rng.Uint64()
	}
	whole, err := NewRowSplit(rows, cols, append([]Triple(nil), ts...), 1)
	if err != nil {
		t.Fatal(err)
	}
	var want spvec.MaskVec
	wantScanned := whole.PullView().PullMasks(&want, frontier, visited, ^uint64(0), 0, 0, nil, nil)

	for _, threads := range []int{2, 4, 7} {
		rs, err := NewRowSplit(rows, cols, append([]Triple(nil), ts...), threads)
		if err != nil {
			t.Fatal(err)
		}
		ps := rs.PullView()
		var scratch MaskPullScratch
		pool := smp.NewPool(threads)
		var got spvec.MaskVec
		scanned := ps.PullMasks(&got, frontier, visited, ^uint64(0), 0, 0, pool, &scratch)
		pool.Close()
		if scanned != wantScanned {
			t.Fatalf("threads=%d: scanned %d, want %d", threads, scanned, wantScanned)
		}
		if len(got.Ind) != len(want.Ind) {
			t.Fatalf("threads=%d: %d entries, want %d", threads, len(got.Ind), len(want.Ind))
		}
		for i := range want.Ind {
			if got.Ind[i] != want.Ind[i] || got.Mask[i] != want.Mask[i] || got.Par[i] != want.Par[i] {
				t.Fatalf("threads=%d: entry %d diverges", threads, i)
			}
		}
	}
}
