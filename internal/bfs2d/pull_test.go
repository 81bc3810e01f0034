package bfs2d

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/bits"
	"repro/internal/graph"
	"repro/internal/serial"
	"repro/internal/spmat"
)

// sliceTestCSR returns a sorted, duplicate-free CSR over n vertices
// with m random edges, self-loops kept and every fifth vertex left
// without out-edges; symmetric adds the reverse of every edge.
func sliceTestCSR(rng *rand.Rand, n, m int, symmetric bool) *graph.CSR {
	rows := make([][]uint32, n)
	add := func(u, v int) {
		if !slices.Contains(rows[u], uint32(v)) {
			rows[u] = append(rows[u], uint32(v))
		}
	}
	for k := 0; k < m; k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if k%7 == 0 {
			v = u
		}
		if u%5 == 4 || (symmetric && v%5 == 4) {
			continue
		}
		add(u, v)
		if symmetric {
			add(v, u)
		}
	}
	csr := &graph.CSR{NumVerts: int64(n), XAdj: make([]int64, n+1)}
	for u, row := range rows {
		slices.Sort(row)
		csr.Adj = append(csr.Adj, row...)
		csr.XAdj[u+1] = int64(len(csr.Adj))
	}
	return csr
}

// refPullRows lists, row by row, the global column ids of one DCSC
// strip whose first column is colLo: the rows the counting-sort pull
// builder gave, which the CSR slices replaced.
func refPullRows(d *spmat.DCSC, colLo int64) [][]uint32 {
	rows := make([][]uint32, d.Rows)
	for k, c := range d.JC {
		for _, r := range d.IR[d.CP[k]:d.CP[k+1]] {
			rows[r] = append(rows[r], uint32(colLo+c))
		}
	}
	return rows
}

// TestPullViewsSliceCSR pins the 2D pull views to slices of the
// in-adjacency CSR. Every strip of every view lists, row by row, the
// same global column ids as the counting-sort view of its DCSC strip,
// on square, rectangular, 1×p and p×1 grids, one, two and four strips,
// symmetric and directed inputs with empty rows and self-loops. All
// views read one in-adjacency, the push CSR itself when symmetric. The
// first and last boundary of each row block are its XAdj, and each
// view's End is the next view's Beg, so a row block allocates only
// pc−1 boundary arrays. The views are built by four concurrent first
// callers, which the race smoke in scripts/ci.sh checks.
func TestPullViewsSliceCSR(t *testing.T) {
	const n = 37
	rng := rand.New(rand.NewSource(56))
	grids := [][2]int{{4, 4}, {2, 3}, {3, 2}, {1, 5}, {5, 1}}
	for _, symmetric := range []bool{true, false} {
		csr := sliceTestCSR(rng, n, 120, symmetric)
		in := csr
		if !symmetric {
			in = csr.Transpose()
		}
		for _, grid := range grids {
			for _, threads := range []int{1, 2, 4} {
				pr, pc := grid[0], grid[1]
				name := fmt.Sprintf("symmetric=%v %dx%d t=%d", symmetric, pr, pc, threads)
				g, err := FromCSR(csr, pr, pc, threads)
				if err != nil {
					t.Fatal(err)
				}
				g.Symmetric = symmetric
				// Concurrent first callers share one build.
				callers := make([][][]*spmat.PullSplit, 4)
				var wg sync.WaitGroup
				for k := range callers {
					wg.Add(1)
					go func(k int) {
						defer wg.Done()
						callers[k] = g.Pulls()
					}(k)
				}
				wg.Wait()
				pulls := callers[0]
				for _, other := range callers[1:] {
					if other[0][0] != pulls[0][0] {
						t.Fatalf("%s: concurrent callers got different views", name)
					}
				}
				// The first view's Beg reslices to the whole XAdj of the
				// CSR the views slice: the push CSR's own when symmetric.
				xadj, adj := pulls[0][0].Strips[0].Beg[:n+1], pulls[0][0].Strips[0].Adj
				if !slices.Equal(xadj, in.XAdj) || !slices.Equal(adj, in.Adj) ||
					symmetric && (&xadj[0] != &csr.XAdj[0] || &adj[0] != &csr.Adj[0]) {
					t.Fatalf("%s: the views do not slice the in-adjacency", name)
				}
				for i := 0; i < pr; i++ {
					rowLo := g.Part.RowStart(i)
					var prevEnd *int64
					for j := 0; j < pc; j++ {
						ps, blk := pulls[i][j], g.Blocks[i][j]
						if !slices.Equal(ps.Offsets, blk.Offsets) {
							t.Fatalf("%s block (%d,%d): strips %v, push strips %v", name, i, j, ps.Offsets, blk.Offsets)
						}
						// The strips are SubRows views, so strip 0's
						// arrays reslice to the whole view's.
						beg, end := ps.Strips[0].Beg[:ps.Rows], ps.Strips[0].End[:ps.Rows]
						if j == 0 && &beg[0] != &xadj[rowLo] {
							t.Errorf("%s row block %d: first boundary is not XAdj", name, i)
						}
						if j > 0 && &beg[0] != prevEnd {
							t.Errorf("%s block (%d,%d): Beg is not the previous view's End", name, i, j)
						}
						prevEnd = &end[0]
						if j == pc-1 && prevEnd != &xadj[rowLo+1] {
							t.Errorf("%s row block %d: last boundary is not XAdj", name, i)
						}
						for s, strip := range ps.Strips {
							if &strip.Adj[0] != &adj[0] {
								t.Errorf("%s block (%d,%d) strip %d: Adj is a copy", name, i, j, s)
							}
							if &strip.Beg[0] != &beg[ps.Offsets[s]] || &strip.End[0] != &end[ps.Offsets[s]] {
								t.Errorf("%s block (%d,%d) strip %d: not a SubRows view", name, i, j, s)
							}
							want := refPullRows(blk.Strips[s], g.Part.ColStart(j))
							for r := int64(0); r < strip.Rows; r++ {
								got := strip.Adj[strip.Beg[r]:strip.End[r]]
								if !slices.Equal(got, want[r]) {
									t.Fatalf("%s block (%d,%d) strip %d row %d: %v, want %v", name, i, j, s, r, got, want[r])
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestClaimFold pins the fold's claim-as-pairs-arrive commit: a vertex
// named by several pieces keeps the largest parent, a vertex visited at
// an earlier level keeps its parent and distance, the new frontier comes
// out ascending whatever order the pieces name it in, a trailing odd
// word is ignored, and seen is clear again on return. Random pieces then
// match a concatenate, sort, max-merge and mask reference, seen reused
// across calls.
func TestClaimFold(t *testing.T) {
	const lo, level = 100, 3
	u := serial.Unreached
	dist := []int64{u, 1, u, u, u, u}
	parent := []int64{u, 40, u, u, u, u}
	seen := bits.NewBitmap(int64(len(dist)))
	pieces := [][]int64{
		{100, 7, 104, 2},
		{100, 9, 101, 50, 105, 1},
		{100, 3, 104, 8, 102},
		{},
	}
	frontier, distinct := claimFold(pieces, lo, level, dist, parent, seen, nil)
	if want := []int64{100, 104, 105}; !slices.Equal(frontier, want) {
		t.Errorf("frontier %v, want %v", frontier, want)
	}
	if distinct != 4 {
		t.Errorf("distinct %d, want 4", distinct)
	}
	if want := []int64{9, 40, u, u, 8, 1}; !slices.Equal(parent, want) {
		t.Errorf("parent %v, want %v", parent, want)
	}
	if want := []int64{level, 1, u, u, level, level}; !slices.Equal(dist, want) {
		t.Errorf("dist %v, want %v", dist, want)
	}
	if seen.Count() != 0 {
		t.Errorf("seen holds %d bits on return", seen.Count())
	}

	rng := rand.New(rand.NewSource(56))
	const n = 300
	seen = bits.NewBitmap(n)
	for round := 0; round < 50; round++ {
		dist, parent := make([]int64, n), make([]int64, n)
		for v := range dist {
			dist[v], parent[v] = u, u
			if rng.Intn(3) == 0 {
				dist[v], parent[v] = 1, int64(rng.Intn(1000))
			}
		}
		pieces := make([][]int64, rng.Intn(6))
		type pair struct{ v, par int64 }
		var all []pair
		for k := range pieces {
			var vs []int64
			for v := int64(0); v < n; v++ {
				if rng.Intn(8) == 0 {
					vs = append(vs, v)
				}
			}
			for _, v := range vs {
				par := int64(rng.Intn(1000))
				pieces[k] = append(pieces[k], lo+v, par)
				all = append(all, pair{v, par})
			}
		}
		wantDist, wantParent := slices.Clone(dist), slices.Clone(parent)
		var wantFrontier []int64
		var wantDistinct int64
		sort.SliceStable(all, func(a, b int) bool { return all[a].v < all[b].v })
		for k := 0; k < len(all); {
			v, best := all[k].v, all[k].par
			for ; k < len(all) && all[k].v == v; k++ {
				best = max(best, all[k].par)
			}
			wantDistinct++
			if wantParent[v] == u {
				wantParent[v], wantDist[v] = best, level
				wantFrontier = append(wantFrontier, lo+v)
			}
		}
		frontier, distinct := claimFold(pieces, lo, level, dist, parent, seen, nil)
		if !slices.Equal(frontier, wantFrontier) || distinct != wantDistinct ||
			!slices.Equal(dist, wantDist) || !slices.Equal(parent, wantParent) {
			t.Fatalf("round %d: frontier %v distinct %d, want %v and %d (or planes differ)",
				round, frontier, distinct, wantFrontier, wantDistinct)
		}
		if seen.Count() != 0 {
			t.Fatalf("round %d: seen holds %d bits on return", round, seen.Count())
		}
	}
}
