package spmat

import (
	"testing"

	"repro/internal/bits"
	"repro/internal/graph"
	"repro/internal/prng"
	"repro/internal/spvec"
	"repro/internal/webgen"
)

// crawlBlocks returns the 2^16-vertex crawl's CSR cut into a 4×4 grid
// of one-strip blocks, the shape a 16-rank flat 2D search multiplies,
// with the grid's bounds.
func crawlBlocks(b *testing.B) (*graph.CSR, []int64) {
	const n = 1 << 16
	el, err := webgen.UKUnionLike(n, 191).GenerateUndirected()
	if err != nil {
		b.Fatal(err)
	}
	csr, err := graph.BuildCSR(el, true)
	if err != nil {
		b.Fatal(err)
	}
	return csr, []int64{0, n / 4, n / 2, 3 * n / 4, n}
}

// crawlBlock returns block (1, 1) of the crawl's grid with the global id
// of its first row and column.
func crawlBlock(b *testing.B) (*RowSplit, int64) {
	csr, bounds := crawlBlocks(b)
	return TransposedBlocks(csr, bounds, bounds, 1)[1][1], bounds[1]
}

// BenchmarkSpMSVSparseFrontier times one top-down level on a crawl block
// whose frontier holds about 1 % of its nonempty columns: one Auto
// SpMSV, whose returned work the 2D driver charges. The column join's
// cost here is what galloping removes.
func BenchmarkSpMSVSparseFrontier(b *testing.B) {
	block, off := crawlBlock(b)
	f := &spvec.Vec{}
	for k, c := range block.Strips[0].JC {
		if k%100 == 0 {
			f.Append(c, off+c)
		}
	}
	var dst spvec.Vec
	var rsc RowScratch
	opts := SpMSVOpts{Kernel: KernelAuto}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += block.SpMSV(&dst, f, opts, nil, &rsc)
	}
}

// BenchmarkPullMostlyVisited times one bottom-up pull over a crawl block
// in which 99 % of rows are visited and 1 % of columns are in the
// frontier, the late-level shape where the per-row visited test was the
// pull's cost.
func BenchmarkPullMostlyVisited(b *testing.B) {
	csr, bounds := crawlBlocks(b)
	ps, off := PullBlocks(csr, bounds, bounds, 1)[1][1], bounds[1]
	rng := prng.New(191)
	frontier := bits.NewBitmap(4 * off)
	visited := bits.NewBitmap(4 * off)
	for v := int64(0); v < 4*off; v++ {
		if rng.Intn(100) == 0 {
			frontier.Set(v)
		}
		if rng.Intn(100) != 0 {
			visited.Set(v)
		}
	}
	var dst spvec.Vec
	var psc PullScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += ps.Pull(&dst, frontier, visited, off, off, nil, &psc)
	}
}

// benchSink keeps the benchmarks' results live.
var benchSink int64
