package spmat

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/bits"
	"repro/internal/graph"
	"repro/internal/prng"
	"repro/internal/smp"
	"repro/internal/spvec"
)

// liveTestCSR returns a sorted, duplicate-free in-adjacency over n
// vertices in which each row has entries inside a column block
// [colBounds[j], colBounds[j+1]) with probability pct %, one to four of
// them, so the rows of every PullBlocks view are live at about that
// rate: 0 gives all-empty views and 100 all-live ones.
func liveTestCSR(rng *prng.Xoshiro256, n int64, colBounds []int64, pct int) *graph.CSR {
	csr := &graph.CSR{NumVerts: n, XAdj: make([]int64, n+1)}
	for v := int64(0); v < n; v++ {
		var row []uint32
		for j := 0; j+1 < len(colBounds); j++ {
			if rng.Intn(100) >= pct {
				continue
			}
			lo, w := colBounds[j], colBounds[j+1]-colBounds[j]
			for k := rng.Intn(4); k >= 0; k-- {
				row = append(row, uint32(lo+rng.Int64n(w)))
			}
		}
		slices.Sort(row)
		csr.Adj = append(csr.Adj, slices.Compact(row)...)
		csr.XAdj[v+1] = int64(len(csr.Adj))
	}
	return csr
}

func maskVecsEqual(a, b *spvec.MaskVec) bool {
	return slices.Equal(a.Ind, b.Ind) && slices.Equal(a.Mask, b.Mask) && slices.Equal(a.Par, b.Par)
}

// TestLiveMaskMatchesPerRowReference checks the live-row skip of all
// four pull paths (PullCSR.Pull and PullMasks, PullSplit.Pull and
// PullMasks) against per-row references that ignore the mask, output
// and scanned count both, on PullBlocks views whose rows are about three
// quarters empty, all empty and all live. The middle row block has 1000
// rows starting at row 37, so its visRowOff is unaligned and its three
// strips start at rows 333 and 666 of the view's one mask; one, three
// and four strips, visited bitmaps and planes empty, partly and fully
// set, and every strip's live bits are checked against its rows.
func TestLiveMaskMatchesPerRowReference(t *testing.T) {
	const n = 1100
	rowBounds := []int64{0, 37, 1037, n}
	colBounds := []int64{0, 400, n}
	if off := stripOffsets(1000, 3); off[1]%64 == 0 || off[2]%64 == 0 {
		t.Fatalf("strip offsets %v are word-aligned; the test needs unaligned ones", off)
	}
	rng := prng.New(57)
	for _, pct := range []int{25, 0, 100} {
		in := liveTestCSR(rng, n, colBounds, pct)
		for _, threads := range []int{1, 3, 4} {
			views := PullBlocks(in, rowBounds, colBounds, threads)
			pool := smp.NewPool(threads)
			for _, fill := range []int{0, 30, 100} {
				frontier, visited := bits.NewBitmap(n), bits.NewBitmap(n+int64(rng.Intn(70)))
				fPlane, vPlane := make([]uint64, n), make([]uint64, n)
				for v := int64(0); v < n; v++ {
					if rng.Intn(4) == 0 {
						frontier.Set(v)
					}
					if rng.Intn(100) < fill {
						visited.Set(v)
					}
					fPlane[v] = rng.Uint64() & rng.Uint64()
					if fill == 100 {
						vPlane[v] = ^uint64(0)
					} else if fill > 0 {
						vPlane[v] = rng.Uint64() & rng.Uint64()
					}
				}
				active := rng.Uint64() | 1
				for i := range views {
					for j, ps := range views[i] {
						name := fmt.Sprintf("live %d%% t=%d fill %d%% block (%d,%d)", pct, threads, fill, i, j)
						checkLiveSplit(t, name, ps, frontier, visited, fPlane, vPlane, active, rowBounds[i], colBounds[j], pool)
					}
				}
			}
			pool.Close()
		}
	}
}

// checkLiveSplit compares one PullBlocks view's pulls, strip by strip
// and strip-parallel, with the per-row references.
func checkLiveSplit(t *testing.T, name string, ps *PullSplit, frontier, visited *bits.Bitmap, fPlane, vPlane []uint64,
	active uint64, visRowOff, colLo int64, pool *smp.Pool) {
	t.Helper()
	var want, got spvec.Vec
	var wantM, gotM spvec.MaskVec
	var wantScanned, wantScannedM int64
	for s, strip := range ps.Strips {
		off := ps.Offsets[s]
		if strip.LiveOff != off {
			t.Fatalf("%s strip %d: LiveOff %d, want %d", name, s, strip.LiveOff, off)
		}
		for r := int64(0); r < strip.Rows; r++ {
			g := strip.LiveOff + r
			if live := strip.Live[g/64]>>uint(g%64)&1 == 1; live != (strip.Beg[r] < strip.End[r]) {
				t.Fatalf("%s strip %d row %d: live bit %v, row length %d", name, s, r, live, strip.End[r]-strip.Beg[r])
			}
		}
		var ref, out spvec.Vec
		refScanned := pullPerRow(strip, &ref, frontier, visited, visRowOff+off)
		if scanned := strip.Pull(&out, frontier, visited, visRowOff+off); scanned != refScanned || !vecsEqual(&out, &ref) {
			t.Fatalf("%s strip %d: Pull scanned %d want %d, out %v want %v", name, s, scanned, refScanned, out, ref)
		}
		var refM, outM spvec.MaskVec
		refScannedM := pullMasksPerRow(strip, &refM, fPlane, vPlane, active, visRowOff+off)
		if scanned := strip.PullMasks(&outM, fPlane, vPlane, active, visRowOff+off); scanned != refScannedM || !maskVecsEqual(&outM, &refM) {
			t.Fatalf("%s strip %d: PullMasks scanned %d want %d", name, s, scanned, refScannedM)
		}
		wantScanned += refScanned
		wantScannedM += refScannedM
		for k, r := range ref.Ind {
			want.Append(r+off, ref.Val[k])
		}
		for k, r := range refM.Ind {
			wantM.Append(r+off, refM.Mask[k], refM.Par[k])
		}
	}
	if scanned := ps.Pull(&got, frontier, visited, visRowOff, colLo, pool, nil); scanned != wantScanned || !vecsEqual(&got, &want) {
		t.Fatalf("%s: PullSplit.Pull scanned %d want %d", name, scanned, wantScanned)
	}
	if scanned := ps.PullMasks(&gotM, fPlane, vPlane, active, visRowOff, pool, nil); scanned != wantScannedM || !maskVecsEqual(&gotM, &wantM) {
		t.Fatalf("%s: PullSplit.PullMasks scanned %d want %d", name, scanned, wantScannedM)
	}
}
