package bfs2d

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/dirheur"
	"repro/internal/graph"
	"repro/internal/levels"
	"repro/internal/netmodel"
	"repro/internal/rmat"
	"repro/internal/serial"
)

// TestTransposeOwnerStructure pins the routing contract of the
// rectangular transpose exchange: every vertex routes into its own
// column block, sub-pieces tile each column block in ascending grid-row
// order, and on square grids the routing coincides with the pairwise
// transpose peer.
func TestTransposeOwnerStructure(t *testing.T) {
	for _, shape := range [][2]int{{1, 5}, {2, 3}, {3, 2}, {4, 4}, {5, 1}} {
		pt := Part2D{N: 103, Pr: shape[0], Pc: shape[1]}
		prevRow := 0
		for v := int64(0); v < pt.N; v++ {
			i, j := pt.TransposeOwner(v)
			if j != pt.ColBlockOf(v) {
				t.Fatalf("%dx%d: TransposeOwner(%d) col %d, want %d", pt.Pr, pt.Pc, v, j, pt.ColBlockOf(v))
			}
			if v < pt.SubColStart(j, i) || v >= pt.SubColStart(j, i+1) {
				t.Fatalf("%dx%d: vertex %d outside its sub-piece (%d,%d)", pt.Pr, pt.Pc, v, i, j)
			}
			// Within a column block, sub-owner rows are non-decreasing
			// (sub-pieces tile the block in ascending grid-row order).
			if v == pt.ColStart(j) {
				prevRow = 0
			}
			if i < prevRow {
				t.Fatalf("%dx%d: sub-owner row decreases at vertex %d", pt.Pr, pt.Pc, v)
			}
			prevRow = i
		}
	}
	// Square grids: TransposeOwner(v) must be the grid position the
	// pairwise exchange would deliver v's piece to.
	pt := Part2D{N: 97, Pr: 3, Pc: 3}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			lo, hi := pt.OwnedRange(i, j)
			for v := lo; v < hi; v++ {
				ti, tj := pt.TransposeOwner(v)
				if ti != j || tj != i {
					t.Fatalf("square: TransposeOwner(%d) = (%d,%d), want transpose peer (%d,%d)", v, ti, tj, j, i)
				}
			}
		}
	}
}

// runRect runs the 2D BFS on an arbitrary pr×pc grid with a real cost
// model and validates distances and parents against the serial oracle.
func runRect(t *testing.T, el *graph.EdgeList, pr, pc int, source int64, opt Options) *levels.Output {
	t.Helper()
	ref, err := graph.BuildCSR(el, true)
	if err != nil {
		t.Fatal(err)
	}
	threads := opt.Threads
	if threads < 1 {
		threads = 1
	}
	dg, err := Distribute(el, pr, pc, threads)
	if err != nil {
		t.Fatal(err)
	}
	w := cluster.NewWorld(pr*pc, netmodel.Franklin())
	grid := cluster.NewGrid(w, pr, pc)
	opt.Price = netmodel.Franklin()
	out, err := Run(w, grid, dg, source, opt)
	if err != nil {
		t.Fatal(err)
	}
	sref := serial.BFS(ref, source)
	res := &serial.Result{Source: source, Dist: out.Dist, Parent: out.Parent}
	if err := serial.Validate(ref, res, sref); err != nil {
		t.Fatalf("%dx%d threads=%d dir=%v: %v", pr, pc, opt.Threads, opt.Direction, err)
	}
	return out
}

// TestBFS2DRectangularGrids runs every direction policy on rectangular
// layouts (including degenerate 1×p and p×1 grids) and demands
// distances bit-identical to the square 2×2 grid on the same graph.
func TestBFS2DRectangularGrids(t *testing.T) {
	gp := rmat.Graph500(9, 8, 61)
	el, err := gp.GenerateUndirected()
	if err != nil {
		t.Fatal(err)
	}
	src := goodSource(t, el)
	for _, dir := range []dirheur.Mode{dirheur.ModeTopDown, dirheur.ModeAuto, dirheur.ModeBottomUp} {
		opt := DefaultOptions()
		opt.Direction = dir
		ref := runRect(t, el, 2, 2, src, opt)
		for _, shape := range [][2]int{{1, 4}, {4, 1}, {2, 3}, {3, 2}, {2, 4}, {1, 6}} {
			for _, threads := range []int{1, 3} {
				o := opt
				o.Threads = threads
				out := runRect(t, el, shape[0], shape[1], src, o)
				for v := range ref.Dist {
					if out.Dist[v] != ref.Dist[v] {
						t.Fatalf("%dx%d threads=%d dir=%v: dist[%d] = %d, square got %d",
							shape[0], shape[1], threads, dir, v, out.Dist[v], ref.Dist[v])
					}
				}
				if out.Levels != ref.Levels || out.TraversedEdges != ref.TraversedEdges {
					t.Fatalf("%dx%d dir=%v: levels/edges %d/%d, square got %d/%d",
						shape[0], shape[1], dir, out.Levels, out.TraversedEdges, ref.Levels, ref.TraversedEdges)
				}
			}
		}
	}
}

// TestBFS2DRectangularDirected checks the rectangular pull path on a
// directed graph, where in- and out-adjacency differ.
func TestBFS2DRectangularDirected(t *testing.T) {
	el := &graph.EdgeList{NumVerts: 9}
	for _, e := range [][2]int64{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {0, 7}, {7, 8}, {8, 3}} {
		el.Edges = append(el.Edges, graph.Edge{U: e[0], V: e[1]})
	}
	ref, err := graph.BuildCSR(el, false)
	if err != nil {
		t.Fatal(err)
	}
	sref := serial.BFS(ref, 0)
	for _, shape := range [][2]int{{2, 3}, {3, 2}, {1, 4}} {
		for _, dir := range []dirheur.Mode{dirheur.ModeTopDown, dirheur.ModeAuto, dirheur.ModeBottomUp} {
			dg, err := Distribute(el, shape[0], shape[1], 1)
			if err != nil {
				t.Fatal(err)
			}
			w := cluster.NewWorld(shape[0]*shape[1], cluster.ZeroCost{})
			grid := cluster.NewGrid(w, shape[0], shape[1])
			opt := DefaultOptions()
			opt.Direction = dir
			out, err := Run(w, grid, dg, 0, opt)
			if err != nil {
				t.Fatal(err)
			}
			for v := range sref.Dist {
				if out.Dist[v] != sref.Dist[v] {
					t.Fatalf("%dx%d dir=%v: dist[%d] = %d, serial got %d",
						shape[0], shape[1], dir, v, out.Dist[v], sref.Dist[v])
				}
			}
		}
	}
}

// TestBFS2DRectangularArenaReuse runs repeated searches through one
// arena across grid shapes and directions: recycled buffers must never
// leak state between shapes.
func TestBFS2DRectangularArenaReuse(t *testing.T) {
	gp := rmat.Graph500(8, 8, 67)
	el, err := gp.GenerateUndirected()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := graph.BuildCSR(el, true)
	if err != nil {
		t.Fatal(err)
	}
	src := goodSource(t, el)
	sref := serial.BFS(ref, src)
	var arena Arena
	defer arena.Close()
	for round := 0; round < 2; round++ {
		for _, shape := range [][2]int{{2, 3}, {3, 2}, {2, 2}} {
			dg, err := Distribute(el, shape[0], shape[1], 1)
			if err != nil {
				t.Fatal(err)
			}
			w := cluster.NewWorld(shape[0]*shape[1], cluster.ZeroCost{})
			grid := cluster.NewGrid(w, shape[0], shape[1])
			opt := DefaultOptions()
			opt.Direction = dirheur.ModeAuto
			opt.Arena = &arena
			out, err := Run(w, grid, dg, src, opt)
			if err != nil {
				t.Fatal(err)
			}
			for v := range sref.Dist {
				if out.Dist[v] != sref.Dist[v] {
					t.Fatalf("round %d %dx%d: dist[%d] = %d, serial got %d",
						round, shape[0], shape[1], v, out.Dist[v], sref.Dist[v])
				}
			}
		}
	}
}
