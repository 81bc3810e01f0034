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
