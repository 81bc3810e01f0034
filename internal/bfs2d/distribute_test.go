package bfs2d

import (
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/rmat"
	"repro/internal/spmat"
	"repro/internal/webgen"
)

// distributeBySort is the reference 2D construction: bucket the edge list's
// transposed entries by grid block and let spmat.NewRowSplit sort and
// deduplicate each block. FromCSR must reproduce it exactly.
func distributeBySort(el *graph.EdgeList, pr, pc, threads int) (*Graph, error) {
	pt := Part2D{N: el.NumVerts, Pr: pr, Pc: pc}
	if err := pt.Validate(); err != nil {
		return nil, err
	}
	if threads < 1 {
		threads = 1
	}
	buckets := make([][][]spmat.Triple, pr)
	for i := range buckets {
		buckets[i] = make([][]spmat.Triple, pc)
	}
	for _, e := range el.Edges {
		if e.U == e.V {
			continue // self-loops never change BFS output
		}
		// Transposed entry: row = destination, col = source.
		i := pt.RowBlockOf(e.V)
		j := pt.ColBlockOf(e.U)
		buckets[i][j] = append(buckets[i][j], spmat.Triple{
			Row: e.V - pt.RowStart(i),
			Col: e.U - pt.ColStart(j),
		})
	}
	g := &Graph{Part: pt, Blocks: make([][]*spmat.RowSplit, pr)}
	for i := 0; i < pr; i++ {
		g.Blocks[i] = make([]*spmat.RowSplit, pc)
		rows := pt.RowStart(i+1) - pt.RowStart(i)
		for j := 0; j < pc; j++ {
			cols := pt.ColStart(j+1) - pt.ColStart(j)
			rs, err := spmat.NewRowSplit(rows, cols, buckets[i][j], threads)
			if err != nil {
				return nil, err
			}
			g.Blocks[i][j] = rs
		}
	}
	g.ColDegree = make([]int64, pt.N)
	for i := range g.Blocks {
		for j, blk := range g.Blocks[i] {
			colLo := pt.ColStart(j)
			for _, strip := range blk.Strips {
				for k, c := range strip.JC {
					g.ColDegree[colLo+c] += strip.CP[k+1] - strip.CP[k]
				}
			}
		}
	}
	return g, nil
}

// sameStrip reports whether two DCSC strips hold the same shape and
// arrays (nil and empty compare equal).
func sameStrip(a, b *spmat.DCSC) bool {
	return a.Rows == b.Rows && a.Cols == b.Cols &&
		slices.Equal(a.JC, b.JC) && slices.Equal(a.CP, b.CP) && slices.Equal(a.IR, b.IR)
}

// TestFromCSRMatchesSortedBuckets: the two linear passes over the
// deduplicated CSR must give byte-for-byte the DCSC strips and column
// degrees the bucket-and-sort reference makes from the edge list, on
// square, rectangular and degenerate grids, flat and row-split.
func TestFromCSRMatchesSortedBuckets(t *testing.T) {
	rm, err := rmat.Graph500(10, 16, 0x1a).GenerateUndirected()
	if err != nil {
		t.Fatal(err)
	}
	crawl, err := webgen.UKUnionLike(1<<10, 0x1b).GenerateUndirected()
	if err != nil {
		t.Fatal(err)
	}
	directed, err := rmat.Graph500(10, 8, 0x1c).Generate()
	if err != nil {
		t.Fatal(err)
	}
	// Vertices 31..39 are isolated; k*7 ≡ k*13 (mod 31) at k ≡ 0 makes
	// self-loops, and the sequence repeats every 31 edges.
	messy := &graph.EdgeList{NumVerts: 40}
	for k := int64(0); k < 100; k++ {
		messy.Edges = append(messy.Edges, graph.Edge{U: k * 7 % 31, V: k * 13 % 31})
	}
	inputs := []struct {
		name string
		el   *graph.EdgeList
	}{{"rmat10", rm}, {"crawl", crawl}, {"directed", directed}, {"messy", messy.Symmetrize()}}

	for _, in := range inputs {
		csr, err := graph.BuildCSR(in.el, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, grid := range [][2]int{{1, 16}, {16, 1}, {4, 4}, {2, 8}} {
			for _, threads := range []int{1, 4} {
				pr, pc := grid[0], grid[1]
				got, err := FromCSR(csr, pr, pc, threads)
				if err != nil {
					t.Fatal(err)
				}
				want, err := distributeBySort(in.el, pr, pc, threads)
				if err != nil {
					t.Fatal(err)
				}
				if got.Part != want.Part || !slices.Equal(got.ColDegree, want.ColDegree) {
					t.Fatalf("%s %dx%d t=%d: partition or column degrees differ", in.name, pr, pc, threads)
				}
				for i := range want.Blocks {
					for j, wb := range want.Blocks[i] {
						gb := got.Blocks[i][j]
						if gb.Rows != wb.Rows || gb.Cols != wb.Cols || !slices.Equal(gb.Offsets, wb.Offsets) ||
							len(gb.Strips) != len(wb.Strips) {
							t.Fatalf("%s %dx%d t=%d: block (%d,%d) shape differs", in.name, pr, pc, threads, i, j)
						}
						for s := range wb.Strips {
							if !sameStrip(gb.Strips[s], wb.Strips[s]) {
								t.Fatalf("%s %dx%d t=%d: block (%d,%d) strip %d differs",
									in.name, pr, pc, threads, i, j, s)
							}
						}
					}
				}
			}
		}
	}
}
