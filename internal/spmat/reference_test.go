package spmat

import (
	"fmt"
	"testing"

	"repro/internal/bits"
	"repro/internal/prng"
	"repro/internal/smp"
	"repro/internal/spvec"
)

// The kernels' previous forms, kept as the references the property tests
// and FuzzSelectColumns compare against: a step-by-step merge-join for
// column selection and a per-row visited test for the pull.

// mergeSelect is the step-by-step merge-join of a frontier's indices with
// a block's nonempty columns, returning every match as (i, j) in order.
func mergeSelect(jc, ind []int64) [][2]int {
	var out [][2]int
	i, j := 0, 0
	for i < len(ind) && j < len(jc) {
		switch {
		case ind[i] < jc[j]:
			i++
		case ind[i] > jc[j]:
			j++
		default:
			out = append(out, [2]int{i, j})
			i++
			j++
		}
	}
	return out
}

// gallopSelect records selectColumns' matches in the same form.
func gallopSelect(jc, ind []int64) [][2]int {
	var out [][2]int
	selectColumns(jc, ind, func(i, j int) { out = append(out, [2]int{i, j}) })
	return out
}

// mergeWork is Work over the merge-join.
func mergeWork(m *DCSC, ind []int64) int64 {
	var work int64
	for _, p := range mergeSelect(m.JC, ind) {
		work += m.CP[p[1]+1] - m.CP[p[1]]
	}
	return work
}

// pullPerRow is the pull that tests visited one row at a time.
func pullPerRow(m *PullCSR, dst *spvec.Vec, frontier, visited *bits.Bitmap, visRowOff int64) int64 {
	dst.Reset()
	var scanned int64
	for rl := int64(0); rl < m.Rows; rl++ {
		if visited.Get(visRowOff + rl) {
			continue
		}
		for _, id := range m.Adj[m.Beg[rl]:m.End[rl]] {
			scanned++
			c := int64(id)
			if frontier.Get(c) {
				dst.Ind = append(dst.Ind, rl)
				dst.Val = append(dst.Val, c)
				break
			}
		}
	}
	return scanned
}

func samePairs(a, b [][2]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if a[k] != b[k] {
			return false
		}
	}
	return true
}

// frontierCases returns the frontiers the selection tests run on one
// block: empty and full, JC itself, its first and last columns, the
// columns outside JC, and random subsets from sparse to dense.
func frontierCases(rng *prng.Xoshiro256, d *DCSC) map[string][]int64 {
	cases := map[string][]int64{"empty": nil, "jc": d.JC}
	var full, disjoint []int64
	jcSet := make(map[int64]bool, len(d.JC))
	for _, c := range d.JC {
		jcSet[c] = true
	}
	for c := int64(0); c < d.Cols; c++ {
		full = append(full, c)
		if !jcSet[c] {
			disjoint = append(disjoint, c)
		}
	}
	cases["full"], cases["disjoint"] = full, disjoint
	if n := len(d.JC); n > 0 {
		cases["first"] = []int64{d.JC[0]}
		cases["last"] = []int64{d.JC[n-1]}
		cases["first+last"] = []int64{d.JC[0], d.JC[n-1]}
	}
	for _, pct := range []int{1, 10, 50, 90} {
		var sub []int64
		for c := int64(0); c < d.Cols; c++ {
			if rng.Intn(100) < pct {
				sub = append(sub, c)
			}
		}
		cases[fmt.Sprintf("random-%d%%", pct)] = sub
	}
	return cases
}

// TestSelectColumnsMatchesMergeJoin checks the galloping column join
// against the merge-join on random DCSC blocks, from hypersparse to
// dense, for every frontier shape in frontierCases: the same matches in
// the same order, the same Work and SpMSVMasks work, and SpMSV output
// and work under all three kernels equal to products built on the
// merge-join.
func TestSelectColumnsMatchesMergeJoin(t *testing.T) {
	rng := prng.New(0x5e1ec7)
	for round := 0; round < 60; round++ {
		rows := rng.Int64n(200) + 1
		cols := rng.Int64n(400) + 1
		// Entry counts from a few (hypersparse: most columns empty) to
		// several per column.
		nnz := rng.Intn(int(cols)*(1+rng.Intn(4))) + rng.Intn(3)
		d, err := NewDCSC(rows, cols, randTriples(rng, rows, cols, nnz))
		if err != nil {
			t.Fatal(err)
		}
		for name, ind := range frontierCases(rng, d) {
			want := mergeSelect(d.JC, ind)
			if got := gallopSelect(d.JC, ind); !samePairs(got, want) {
				t.Fatalf("round %d %s: gallop matches %v, merge-join %v", round, name, got, want)
			}
			f := &spvec.Vec{}
			mf := &spvec.MaskVec{}
			for _, c := range ind {
				f.Append(c, c)
				mf.Append(c, 1, c)
			}
			wantWork := mergeWork(d, ind)
			if got := d.Work(f); got != wantWork {
				t.Fatalf("round %d %s: Work %d, merge-join %d", round, name, got, wantWork)
			}
			if got := d.SpMSVMasks(&spvec.MaskVec{}, mf, nil); got != wantWork {
				t.Fatalf("round %d %s: SpMSVMasks work %d, merge-join %d", round, name, got, wantWork)
			}
			wantOut := mergeSpMSV(d, f)
			for _, kernel := range []Kernel{KernelSPA, KernelHeap, KernelAuto} {
				got := &spvec.Vec{}
				if work := d.SpMSV(got, f, SpMSVOpts{Kernel: kernel}); !vecsEqual(got, wantOut) || work != wantWork {
					t.Fatalf("round %d %s kernel %v: SpMSV (work %d) diverges from the merge-join product (work %d)",
						round, name, kernel, work, wantWork)
				}
			}
		}
	}
}

// mergeSpMSV is the (select,max) product over the merge-join's matches,
// accumulated in a map and emitted in ascending row order.
func mergeSpMSV(d *DCSC, f *spvec.Vec) *spvec.Vec {
	acc := make(map[int64]int64)
	for _, p := range mergeSelect(d.JC, f.Ind) {
		val := f.Val[p[0]]
		for _, r := range d.colRowsAt(p[1]) {
			if old, ok := acc[int64(r)]; !ok || val > old {
				acc[int64(r)] = val
			}
		}
	}
	out := &spvec.Vec{}
	for r := int64(0); r < d.Rows; r++ {
		if val, ok := acc[r]; ok {
			out.Append(r, val)
		}
	}
	return out
}

// FuzzSelectColumns checks the galloping join against the merge-join on
// fuzzed strictly ascending JC and frontier lists. Each byte is one gap
// (byte+1) between consecutive entries; the frontier's gaps are scaled by
// 2^(shift%8) and it starts at start, so the two lists range from
// interleaved to one far sparser than the other.
func FuzzSelectColumns(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0}, []byte{0, 0, 0, 0}, uint8(0), uint8(0))
	f.Add([]byte{0, 1, 2, 3, 200, 0, 0}, []byte{5, 5}, uint8(3), uint8(1))
	f.Add([]byte{}, []byte{1, 2, 3}, uint8(0), uint8(0))
	f.Add([]byte{255, 255, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 9}, []byte{0}, uint8(7), uint8(255))
	f.Fuzz(func(t *testing.T, jcGaps, indGaps []byte, shift, start uint8) {
		jc := make([]int64, len(jcGaps))
		var c int64 = -1
		for k, g := range jcGaps {
			c += int64(g) + 1
			jc[k] = c
		}
		ind := make([]int64, len(indGaps))
		c = int64(start) - 1
		for k, g := range indGaps {
			c += (int64(g) + 1) << (shift % 8)
			ind[k] = c
		}
		want := mergeSelect(jc, ind)
		if got := gallopSelect(jc, ind); !samePairs(got, want) {
			t.Fatalf("jc %v ind %v: gallop matches %v, merge-join %v", jc, ind, got, want)
		}
		if got := gallopSelect(ind, jc); len(got) != len(want) {
			t.Fatalf("jc %v ind %v: the join is not symmetric", jc, ind)
		}
	})
}

// FuzzSpMSV checks the top-down products end to end against the
// merge-join product: fuzzed triples go through NewDCSC and NewRowSplit
// (1–4 strips), and every SpMSV under the SPA, heap and Auto kernels,
// with and without scratch, must return mergeSpMSV's vector and
// mergeWork's work. Each gap byte advances a row-major position over a
// block of up to 2^16 columns by (byte+1)·2^(shift%12); seed picks the
// frontier, its values (so the max rule decides shared rows), the strip
// count and whether the split runs on a two-worker pool.
func FuzzSpMSV(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0}, uint16(3), uint8(0), uint64(0))
	f.Add([]byte{}, uint16(0), uint8(0), uint64(1))
	f.Add([]byte{0, 1, 2, 3, 200, 0, 0, 9, 9, 9}, uint16(63), uint8(2), uint64(0x5e1ec7))
	f.Add([]byte{50, 49, 0, 0, 7}, uint16(9000), uint8(11), uint64(65261))
	f.Add([]byte{255, 255, 255, 0, 0, 0, 1, 1}, uint16(4), uint8(1), uint64(3))
	pool := smp.NewPool(2)
	f.Cleanup(pool.Close)
	f.Fuzz(func(t *testing.T, gaps []byte, colsM1 uint16, shift uint8, seed uint64) {
		cols := int64(colsM1) + 1
		var ts []Triple
		pos := int64(-1)
		for _, g := range gaps {
			pos += (int64(g) + 1) << (shift % 12)
			ts = append(ts, Triple{Row: pos / cols, Col: pos % cols})
		}
		rng := prng.New(seed)
		rows := (pos+1+cols-1)/cols + rng.Int64n(3)
		if rows == 0 || rows > 1<<18 {
			return
		}
		d, err := NewDCSC(rows, cols, append([]Triple(nil), ts...))
		if err != nil {
			t.Fatal(err)
		}
		strips := 1 + rng.Intn(4)
		rs, err := NewRowSplit(rows, cols, ts, strips)
		if err != nil {
			t.Fatal(err)
		}
		var p *smp.Pool
		if rng.Intn(2) == 0 {
			p = pool
		}
		fv := &spvec.Vec{}
		share := 1 + rng.Intn(100)
		for c := int64(0); c < cols; c++ {
			if rng.Intn(100) < share {
				fv.Append(c, rng.Int64n(1000)-500)
			}
		}
		want, wantWork := mergeSpMSV(d, fv), mergeWork(d, fv.Ind)

		var sc Scratch
		var rsc RowScratch
		for _, kernel := range []Kernel{KernelSPA, KernelHeap, KernelAuto} {
			// Two rounds with scratch, so reuse after a product is covered.
			for _, opts := range []SpMSVOpts{{Kernel: kernel}, {Kernel: kernel, Scratch: &sc}, {Kernel: kernel, Scratch: &sc}} {
				var got spvec.Vec
				if work := d.SpMSV(&got, fv, opts); work != wantWork || !vecsEqual(&got, want) {
					t.Fatalf("%dx%d kernel %v scratch %v: DCSC work %d out %v/%v, merge-join work %d out %v/%v",
						rows, cols, kernel, opts.Scratch != nil, work, got.Ind, got.Val, wantWork, want.Ind, want.Val)
				}
			}
			for _, r := range []*RowScratch{nil, &rsc, &rsc} {
				var got spvec.Vec
				if work := rs.SpMSV(&got, fv, SpMSVOpts{Kernel: kernel}, p, r); work != wantWork || !vecsEqual(&got, want) {
					t.Fatalf("%dx%d kernel %v %d strips pool %v scratch %v: RowSplit work %d out %v/%v, merge-join work %d out %v/%v",
						rows, cols, kernel, len(rs.Strips), p != nil, r != nil, work, got.Ind, got.Val, wantWork, want.Ind, want.Val)
				}
			}
		}
	})
}

// TestPullMatchesPerRowReference checks the word-wise visited skip
// against the per-row pull, output and scanned count both: strips of 1,
// 63, 64 and 65 rows and random heights, aligned and unaligned visRowOff,
// visited bitmaps sized exactly to the strip's last row or longer, no
// rows visited, all of them or a random share, and 1D-style SubRows
// views whose visRowOff is the view's first row.
func TestPullMatchesPerRowReference(t *testing.T) {
	rng := prng.New(0x9a11)
	for round := 0; round < 200; round++ {
		rows := []int64{1, 63, 64, 65, rng.Int64n(300) + 1}[round%5]
		cols := rng.Int64n(80) + 1
		ts := randTriples(rng, rows, cols, rng.Intn(int(rows*4)+1))
		d, err := NewDCSC(rows, cols, ts)
		if err != nil {
			t.Fatal(err)
		}
		visRowOff := []int64{0, 64, rng.Int64n(200), 1 + 64*rng.Int64n(3)}[round%4]
		var lo, hi int64
		if rows > 2 {
			lo = rng.Int64n(rows - 1)
			hi = lo + 1 + rng.Int64n(rows-lo)
		}
		colOff := rng.Int64n(50)
		whole := d.PullView(colOff)
		views, offs := []*PullCSR{whole}, []int64{visRowOff}
		if rows > 2 {
			views, offs = append(views, whole.SubRows(lo, hi)), append(offs, visRowOff+lo)
		}
		frontier := bits.NewBitmap(colOff + cols)
		for c := int64(0); c < cols; c++ {
			if rng.Intn(4) == 0 {
				frontier.Set(colOff + c)
			}
		}
		visLen := visRowOff + rows
		if rng.Intn(2) == 0 {
			visLen += rng.Int64n(130)
		}
		for _, fill := range []int{0, 100, rng.Intn(100)} {
			visited := bits.NewBitmap(visLen)
			for r := int64(0); r < visLen; r++ {
				if rng.Intn(100) < fill {
					visited.Set(r)
				}
			}
			for v, pv := range views {
				var got, want spvec.Vec
				gotScanned := pv.Pull(&got, frontier, visited, offs[v])
				wantScanned := pullPerRow(pv, &want, frontier, visited, offs[v])
				if gotScanned != wantScanned || !vecsEqual(&got, &want) {
					t.Fatalf("round %d rows %d view %d visRowOff %d fill %d%%: scanned %d want %d, out %v want %v",
						round, pv.Rows, v, offs[v], fill, gotScanned, wantScanned, got, want)
				}
			}
		}
	}
}

// FuzzPullView checks the uint32 pull structure end to end: fuzzed
// triples go through NewDCSC, PullView and Pull, and the result must
// equal the per-row pull's, scanned count included, and the pull
// computed from an int64 CSC product. Each gap byte advances a row-major
// position over a block of up to 2^18 columns by (byte+1)·2^(shift%12),
// so entries range from dense runs to row and column ids past 2^16;
// seed picks the frontier, the visited rows and both offsets. The CSC product finds
// each row's smallest frontier column as the (select,max) product of the
// negated column ids, masked by the unvisited rows.
func FuzzPullView(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0}, uint32(3), uint8(0), uint64(0))
	f.Add([]byte{}, uint32(0), uint8(0), uint64(1))
	f.Add([]byte{0, 1, 2, 3, 200, 0, 0, 9, 9, 9}, uint32(63), uint8(2), uint64(0x9a11))
	f.Add([]byte{50, 49}, uint32(70053), uint8(11), uint64(65261))
	f.Add([]byte{48, 48, 15}, uint32(0), uint8(11), uint64(6))
	f.Fuzz(func(t *testing.T, gaps []byte, colsM1 uint32, shift uint8, seed uint64) {
		cols := int64(colsM1%(1<<18)) + 1
		var ts []Triple
		pos := int64(-1)
		for _, g := range gaps {
			pos += (int64(g) + 1) << (shift % 12)
			ts = append(ts, Triple{Row: pos / cols, Col: pos % cols})
		}
		rng := prng.New(seed)
		rows := (pos+1+cols-1)/cols + rng.Int64n(3)
		if rows == 0 || rows > 1<<18 {
			return
		}
		d, err := NewDCSC(rows, cols, append([]Triple(nil), ts...))
		if err != nil {
			t.Fatal(err)
		}
		csc, err := NewCSC(rows, cols, ts)
		if err != nil {
			t.Fatal(err)
		}
		visRowOff, colOff := rng.Int64n(130), rng.Int64n(70)
		frontier := bits.NewBitmap(colOff + cols)
		neg := &spvec.Vec{}
		for c := int64(0); c < cols; c++ {
			if rng.Intn(4) == 0 {
				frontier.Set(colOff + c)
				neg.Append(c, -(colOff + c))
			}
		}
		fill := rng.Intn(101)
		visited := bits.NewBitmap(visRowOff + rows + rng.Int64n(65))
		for r := int64(0); r < visited.Len(); r++ {
			if rng.Intn(100) < fill {
				visited.Set(r)
			}
		}

		want := &spvec.Vec{}
		prod := csc.SpMSV(&spvec.Vec{}, neg)
		for k, r := range prod.Ind {
			if !visited.Get(visRowOff + r) {
				want.Append(r, -prod.Val[k])
			}
		}

		pv := d.PullView(colOff)
		if int64(len(pv.Adj)) != csc.NNZ() {
			t.Fatalf("pull view holds %d entries, CSC %d", int64(len(pv.Adj)), csc.NNZ())
		}
		var got, ref spvec.Vec
		scanned := pv.Pull(&got, frontier, visited, visRowOff)
		refScanned := pullPerRow(pv, &ref, frontier, visited, visRowOff)
		if !vecsEqual(&got, want) {
			t.Fatalf("%dx%d: pull %v/%v, CSC product %v/%v", rows, cols, got.Ind, got.Val, want.Ind, want.Val)
		}
		if scanned != refScanned || !vecsEqual(&got, &ref) {
			t.Fatalf("%dx%d: pull scanned %d, per-row pull %d", rows, cols, scanned, refScanned)
		}
	})
}
