package bfs2d

// Ablation benches for the paper's two 2D design choices, timed over
// Run on one distributed R-MAT graph (scale 13, edge factor 16) on a
// 4x4 grid. All four run top-down, the only direction the diagonal
// vector layout supports, so each pair differs in exactly one choice.
//
//	go test -run '^$' -bench=Ablation -benchmem ./internal/bfs2d

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/graph500"
	"repro/internal/rmat"
	"repro/internal/spmat"
)

// benchAblation times one top-down search per iteration under the given
// kernel and vector distribution; distribution and scratch setup are
// paid before the timer starts.
func benchAblation(b *testing.B, kernel spmat.Kernel, vector VectorDist) {
	b.Helper()
	el, err := rmat.Graph500(13, 16, 0xbe).GenerateUndirected()
	if err != nil {
		b.Fatal(err)
	}
	ref, err := graph.BuildCSR(el, true)
	if err != nil {
		b.Fatal(err)
	}
	const pr = 4
	dg, err := FromCSR(ref, pr, pr, 1)
	if err != nil {
		b.Fatal(err)
	}
	src := graph500.SelectSources(ref, 1, 1)[0]
	w := cluster.NewWorld(pr*pr, cluster.ZeroCost{})
	grid := cluster.NewGrid(w, pr, pr)
	var arena Arena
	defer arena.Close()
	opt := defaultOptions()
	opt.Kernel, opt.Vector, opt.Arena = kernel, vector, &arena
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Reset()
		if _, err := Run(w, grid, dg, src, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationKernelSPA vs ...Heap: the Figure 3 accumulator choice
// embedded in a whole BFS.
func BenchmarkAblationKernelSPA(b *testing.B)  { benchAblation(b, spmat.KernelSPA, Dist2D) }
func BenchmarkAblationKernelHeap(b *testing.B) { benchAblation(b, spmat.KernelHeap, Dist2D) }

// BenchmarkAblationVector2D vs ...Diag: the Figure 4 vector-distribution
// choice under the default (auto) kernel.
func BenchmarkAblationVector2D(b *testing.B)   { benchAblation(b, spmat.KernelAuto, Dist2D) }
func BenchmarkAblationVectorDiag(b *testing.B) { benchAblation(b, spmat.KernelAuto, DistDiag) }
