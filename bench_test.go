package pbfs_test

// One testing.B benchmark per table and figure of the paper's evaluation
// section, plus ablation benches for the design choices DESIGN.md calls
// out. Each figure bench regenerates its table/series through
// internal/bench; run with -v (or cmd/bfsbench) to see the rows.
//
//	go test -bench=. -benchmem
//
// Projected blocks are pure arithmetic; emulated blocks execute the full
// distributed algorithms over goroutine ranks, so their wall time is the
// real cost of the reproduction at laptop scale.

import (
	"io"
	"testing"

	pbfs "repro"
	"repro/internal/bench"
	"repro/internal/graph"
	"repro/internal/prng"
	"repro/internal/rmat"
	"repro/internal/spmat"
	"repro/internal/spvec"
)

// benchDriver runs one experiment driver b.N times.
func benchDriver(b *testing.B, name string, emulate bool) {
	b.Helper()
	e, ok := bench.Lookup(name)
	if !ok {
		b.Fatalf("unknown experiment %s", name)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard, emulate); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1 regenerates Table 1: communication decomposition of
// the flat 2D algorithm (projected + emulated downscale).
func BenchmarkTable1(b *testing.B) { benchDriver(b, "table1", true) }

// BenchmarkFigure3 regenerates Figure 3: the SPA-vs-heap local SpMSV
// kernel crossover (measured Go kernels).
func BenchmarkFigure3(b *testing.B) { benchDriver(b, "fig3", false) }

// BenchmarkFigure4 regenerates Figure 4: the diagonal vector
// distribution's MPI-time imbalance on a 16x16 grid (256 emulated ranks).
func BenchmarkFigure4(b *testing.B) { benchDriver(b, "fig4", false) }

// BenchmarkFigure5 regenerates Figure 5: Franklin strong-scaling GTEPS.
func BenchmarkFigure5(b *testing.B) { benchDriver(b, "fig5", true) }

// BenchmarkFigure6 regenerates Figure 6: Franklin communication times.
func BenchmarkFigure6(b *testing.B) { benchDriver(b, "fig6", true) }

// BenchmarkFigure7 regenerates Figure 7: Hopper strong-scaling GTEPS.
func BenchmarkFigure7(b *testing.B) { benchDriver(b, "fig7", true) }

// BenchmarkFigure8 regenerates Figure 8: Hopper communication times.
func BenchmarkFigure8(b *testing.B) { benchDriver(b, "fig8", true) }

// BenchmarkFigure9 regenerates Figure 9: Franklin weak scaling.
func BenchmarkFigure9(b *testing.B) { benchDriver(b, "fig9", true) }

// BenchmarkFigure10 regenerates Figure 10: GTEPS vs graph density.
func BenchmarkFigure10(b *testing.B) { benchDriver(b, "fig10", true) }

// BenchmarkFigure11 regenerates Figure 11: the uk-union high-diameter
// crawl, flat vs hybrid 2D.
func BenchmarkFigure11(b *testing.B) { benchDriver(b, "fig11", true) }

// BenchmarkTable2 regenerates Table 2: the PBGL comparison on Carver.
func BenchmarkTable2(b *testing.B) { benchDriver(b, "table2", true) }

// BenchmarkReferenceComparison regenerates the Section 6 comparison with
// the Graph 500 reference MPI code.
func BenchmarkReferenceComparison(b *testing.B) { benchDriver(b, "refcomp", true) }

// ---- Ablation benches (DESIGN.md section 6) ----

// benchBFS times one emulated distributed BFS configuration end to end
// (wall clock of the real Go execution, not simulated seconds).
func benchBFS(b *testing.B, algo pbfs.Algorithm, ranks int, opt pbfs.Options) {
	b.Helper()
	g, err := pbfs.NewRMATGraph(13, 16, 0xbe)
	if err != nil {
		b.Fatal(err)
	}
	src := g.Sources(1, 1)[0]
	opt.Algorithm = algo
	opt.Ranks = ranks
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.BFS(src, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// The Figure 3 kernel and Figure 4 vector-distribution ablations
// (design choices 1 and 2) run over the 2D driver directly, in
// internal/bfs2d.

// BenchmarkAblationLocalShortcut vs ...NoShortcut: the 1D local-update
// optimization (design choice 3) — the reference baseline routes local
// discoveries through the exchange.
func BenchmarkAblationLocalShortcut(b *testing.B) {
	benchBFS(b, pbfs.OneDFlat, 8, pbfs.Options{})
}

func BenchmarkAblationNoShortcut(b *testing.B) {
	benchBFS(b, pbfs.Reference, 8, pbfs.Options{})
}

// BenchmarkSerialBFS is the single-core baseline all speedups compare to.
func BenchmarkSerialBFS(b *testing.B) {
	g, err := pbfs.NewRMATGraph(13, 16, 0xbe)
	if err != nil {
		b.Fatal(err)
	}
	src := g.Sources(1, 1)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.SerialBFS(src)
	}
}

// BenchmarkAblationFullStorage vs ...TriangleStorage: the Section 7
// future-work item — storing only the upper triangle halves memory at
// the cost of a second (transposed) pass per SpMSV.
func BenchmarkAblationFullStorage(b *testing.B)     { benchTriangle(b, false) }
func BenchmarkAblationTriangleStorage(b *testing.B) { benchTriangle(b, true) }

func benchTriangle(b *testing.B, triangle bool) {
	b.Helper()
	el, err := rmat.Graph500(13, 16, 0x7a).GenerateUndirected()
	if err != nil {
		b.Fatal(err)
	}
	dim := el.NumVerts
	ts := make([]spmat.Triple, 0, len(el.Edges))
	for _, e := range el.Edges {
		ts = append(ts, spmat.Triple{Row: e.V, Col: e.U})
	}
	var full *spmat.DCSC
	var sym *spmat.Sym
	if triangle {
		sym, err = spmat.NewSym(dim, ts)
	} else {
		full, err = spmat.NewDCSC(dim, dim, ts)
	}
	if err != nil {
		b.Fatal(err)
	}
	rng := prng.New(9)
	find := make([]int64, dim/3)
	fval := make([]int64, dim/3)
	for i := range find {
		find[i] = rng.Int64n(dim)
		fval[i] = find[i]
	}
	f := spvec.FromUnsorted(find, fval)
	var out spvec.Vec
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if triangle {
			sym.SpMSV(&out, f, spmat.SpMSVOpts{Kernel: spmat.KernelHeap})
		} else {
			full.SpMSV(&out, f, spmat.SpMSVOpts{Kernel: spmat.KernelHeap})
		}
	}
	if triangle {
		b.ReportMetric(float64(sym.StorageBytes()), "storage-bytes")
	} else {
		b.ReportMetric(float64(full.StorageBytes()), "storage-bytes")
	}
}

// BenchmarkAblationRandomRelabel vs ...RCMRelabel: the load-balance vs
// locality tradeoff of Section 4.4 and the Section 7 partitioning item,
// measured as the 1D cut fraction on a structured (mesh) graph.
func BenchmarkAblationRandomRelabel(b *testing.B) { benchRelabel(b, false) }
func BenchmarkAblationRCMRelabel(b *testing.B)    { benchRelabel(b, true) }

func benchRelabel(b *testing.B, rcm bool) {
	b.Helper()
	// A 64x64 mesh: the structured case where locality-aware ordering
	// slashes the cut (R-MAT graphs lack good separators, as the paper
	// notes, so the mesh is where the contrast lives).
	const k = 64
	el := &graph.EdgeList{NumVerts: k * k}
	for r := int64(0); r < k; r++ {
		for c := int64(0); c < k; c++ {
			if c+1 < k {
				el.Edges = append(el.Edges, graph.Edge{U: r*k + c, V: r*k + c + 1})
			}
			if r+1 < k {
				el.Edges = append(el.Edges, graph.Edge{U: r*k + c, V: (r+1)*k + c})
			}
		}
	}
	sym := el.Symmetrize()
	g, err := graph.BuildCSR(sym, true)
	if err != nil {
		b.Fatal(err)
	}
	var perm []int64
	if rcm {
		perm = graph.RCMOrder(g)
	} else {
		perm = prng.New(1).Perm(g.NumVerts)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clone := &graph.EdgeList{NumVerts: sym.NumVerts, Edges: append([]graph.Edge(nil), sym.Edges...)}
		if err := graph.RelabelEdges(clone, perm); err != nil {
			b.Fatal(err)
		}
		rg, err := graph.BuildCSR(clone, true)
		if err != nil {
			b.Fatal(err)
		}
		cut := graph.CutEdges(rg, 16)
		b.ReportMetric(float64(cut)/float64(rg.NumEdges())*100, "cut-%")
	}
}
