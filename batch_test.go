package pbfs

import (
	"testing"

	"repro/internal/serial"
)

// batchSources returns k sources for g including a duplicate pair (the
// first source repeated at the end), so every test batch exercises the
// shared-frontier case.
func batchSources(t *testing.T, g *Graph, k int) []int64 {
	t.Helper()
	srcs := g.Sources(k, 0x5a)
	for len(srcs) < k {
		srcs = append(srcs, srcs[0])
	}
	if k >= 2 {
		srcs[k-1] = srcs[0]
	}
	return srcs
}

// TestBFSBatchMatchesSearch pins the serving contract for every engine
// family: batched distances bit-identical to per-source Search through
// the same session, valid parent trees, identical per-source traversal
// accounting.
func TestBFSBatchMatchesSearch(t *testing.T) {
	g := testGraph(t)
	sess := NewSession()
	defer sess.Close()
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"1d-flat", Options{Algorithm: OneDFlat, Ranks: 4}},
		{"1d-hybrid", Options{Algorithm: OneDHybrid, Ranks: 4, Threads: 2}},
		{"2d-flat", Options{Algorithm: TwoDFlat, Ranks: 6, GridRows: 2, GridCols: 3}},
		{"2d-hybrid", Options{Algorithm: TwoDHybrid, Ranks: 4, Threads: 2}},
		{"reference", Options{Algorithm: Reference, Ranks: 4}},
	} {
		srcs := batchSources(t, g, 9)
		br, err := sess.BFSBatch(g, srcs, tc.opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(br.Results) != len(srcs) || len(br.Sources) != len(srcs) {
			t.Fatalf("%s: %d results for %d sources", tc.name, len(br.Results), len(srcs))
		}
		for i, res := range br.Results {
			if res.Source != srcs[i] {
				t.Fatalf("%s: result %d from source %d, want %d", tc.name, i, res.Source, srcs[i])
			}
			seq, err := sess.Search(g, srcs[i], tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			for v := range seq.Dist {
				if res.Dist[v] != seq.Dist[v] {
					t.Fatalf("%s: source %d dist[%d] = %d, sequential %d",
						tc.name, srcs[i], v, res.Dist[v], seq.Dist[v])
				}
			}
			if err := g.Validate(res); err != nil {
				t.Fatalf("%s: source %d: %v", tc.name, srcs[i], err)
			}
			if res.Levels != seq.Levels || res.TraversedEdges != seq.TraversedEdges {
				t.Fatalf("%s: source %d levels/edges %d/%d, sequential %d/%d",
					tc.name, srcs[i], res.Levels, res.TraversedEdges, seq.Levels, seq.TraversedEdges)
			}
		}
	}
}

// TestBFSBatchChunksWideBatches: more than BatchWidth sources split into
// width-bounded chunks transparently, and the duplicate-heavy tail still
// matches per-source searches.
func TestBFSBatchChunksWideBatches(t *testing.T) {
	g := testGraph(t)
	srcs := g.Sources(40, 0x21)
	// 70 sources: chunk of 64 plus a tail of 6, with every source
	// appearing at least once more in the second chunk.
	for len(srcs) < 70 {
		srcs = append(srcs, srcs[len(srcs)%40])
	}
	opt := Options{Algorithm: OneDFlat, Ranks: 4, Machine: "franklin"}
	sess := NewSession()
	defer sess.Close()
	br, err := sess.BFSBatch(g, srcs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 70 {
		t.Fatalf("%d results for 70 sources", len(br.Results))
	}
	if br.SimTime <= 0 || br.MachineTEPS() <= 0 {
		t.Errorf("no time accounted: sim %v machine-TEPS %v", br.SimTime, br.MachineTEPS())
	}
	for i, res := range br.Results {
		sref := serial.BFS(g.csr, srcs[i])
		for v := range sref.Dist {
			if res.Dist[v] != sref.Dist[v] {
				t.Fatalf("source %d (chunk %d): dist[%d] = %d, serial %d",
					srcs[i], i/BatchWidth, v, res.Dist[v], sref.Dist[v])
			}
		}
	}
	// Chunked batches sum their unique counts; each chunk reaches the
	// same component here, so the total is about twice one chunk's.
	single, err := sess.BFSBatch(g, srcs[:64], opt)
	if err != nil {
		t.Fatal(err)
	}
	if br.UniqueTraversedEdges != 2*single.UniqueTraversedEdges {
		t.Errorf("chunked unique edges %d, want %d (two chunks of the same component)",
			br.UniqueTraversedEdges, 2*single.UniqueTraversedEdges)
	}
}

// TestBFSBatchSharesEngineWithSearch: BFSBatch and Search on the same
// layout hit one cached engine — exactly one distribution between them.
func TestBFSBatchSharesEngineWithSearch(t *testing.T) {
	g := testGraph(t)
	sess := NewSession()
	defer sess.Close()
	opt := Options{Algorithm: TwoDFlat, Ranks: 4}
	srcs := batchSources(t, g, 17)
	before := distributions.Load()
	if _, err := sess.BFSBatch(g, srcs, opt); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Search(g, srcs[0], opt); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.BFSBatch(g, srcs[:3], opt); err != nil {
		t.Fatal(err)
	}
	if got := distributions.Load() - before; got != 1 {
		t.Errorf("batch+search on one layout performed %d distributions, want 1", got)
	}
}

// TestBFSBatchAmortizesSimTime is the serving-layer form of the tentpole
// claim: one priced 64-source batch beats 64 sequential searches through
// the same warm session by a wide simulated-time margin.
func TestBFSBatchAmortizesSimTime(t *testing.T) {
	g := testGraph(t)
	srcs := batchSources(t, g, 64)
	sess := NewSession()
	defer sess.Close()
	for _, opt := range []Options{
		{Algorithm: OneDFlat, Ranks: 4, Machine: "franklin"},
		{Algorithm: TwoDFlat, Ranks: 4, Machine: "franklin"},
	} {
		br, err := sess.BFSBatch(g, srcs, opt)
		if err != nil {
			t.Fatal(err)
		}
		var seqTime float64
		for _, src := range srcs {
			res, err := sess.Search(g, src, opt)
			if err != nil {
				t.Fatal(err)
			}
			seqTime += res.SimTime
		}
		if br.SimTime <= 0 || seqTime <= 0 {
			t.Fatal("no simulated time accumulated")
		}
		if seqTime < 4*br.SimTime {
			t.Errorf("%v: batch sim time %.6fs amortizes only %.2fx over sequential %.6fs",
				opt.Algorithm, br.SimTime, seqTime/br.SimTime, seqTime)
		}
		// The amortized per-source share is what each Result carries.
		want := br.SimTime / float64(len(srcs))
		if got := br.Results[0].SimTime; got != want {
			t.Errorf("per-source SimTime %v, want amortized share %v", got, want)
		}
	}
}

// TestBFSBatchErrors pins the error surface: nil graph, empty batch,
// out-of-range sources, bad layouts, closed sessions — errors, never
// panics (the drivers panic on bad sources; the session must not let
// those through).
func TestBFSBatchErrors(t *testing.T) {
	g := testGraph(t)
	sess := NewSession()
	opt := Options{Algorithm: OneDFlat, Ranks: 4}
	if _, err := sess.BFSBatch(nil, []int64{0}, opt); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := sess.BFSBatch(g, nil, opt); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := sess.BFSBatch(g, []int64{0, g.NumVerts()}, opt); err == nil {
		t.Error("out-of-range source accepted")
	}
	if _, err := sess.BFSBatch(g, []int64{0, -1}, opt); err == nil {
		t.Error("negative source accepted")
	}
	if _, err := sess.BFSBatch(g, []int64{0}, Options{Algorithm: TwoDFlat, Ranks: 7, GridRows: 3}); err == nil {
		t.Error("unfactorable grid accepted")
	}
	if _, err := sess.BFSBatch(g, []int64{0}, Options{Algorithm: OneDFlat, Direction: Direction(99)}); err == nil {
		t.Error("unknown direction accepted")
	}
	sess.Close()
	if _, err := sess.BFSBatch(g, []int64{0}, opt); err == nil {
		t.Error("closed session accepted a batch")
	}
}

// TestGraphBFSBatchOneShot covers the one-shot convenience wrapper.
func TestGraphBFSBatchOneShot(t *testing.T) {
	g := testGraph(t)
	srcs := batchSources(t, g, 3)
	br, err := g.BFSBatch(srcs, Options{Algorithm: OneDFlat, Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range br.Results {
		sref := serial.BFS(g.csr, srcs[i])
		for v := range sref.Dist {
			if res.Dist[v] != sref.Dist[v] {
				t.Fatalf("source %d: dist[%d] = %d, serial %d", srcs[i], v, res.Dist[v], sref.Dist[v])
			}
		}
	}
}

// TestBFSBatchUniqueEdgesAccounting: duplicate sources add nothing to
// the unique traversed-edge count, and the batched count matches the
// sequential fallback's union rule on the same sources.
func TestBFSBatchUniqueEdgesAccounting(t *testing.T) {
	g := testGraph(t)
	srcs := batchSources(t, g, 8) // srcs[7] duplicates srcs[0]
	sess := NewSession()
	defer sess.Close()
	batched, err := sess.BFSBatch(g, srcs, Options{Algorithm: OneDFlat, Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	// The Reference engine takes the sequentialBatch path, computing the
	// union independently from per-source distance arrays.
	seq, err := sess.BFSBatch(g, srcs, Options{Algorithm: Reference, Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if batched.UniqueTraversedEdges != seq.UniqueTraversedEdges {
		t.Errorf("unique edges: batched %d, sequential-fallback union %d",
			batched.UniqueTraversedEdges, seq.UniqueTraversedEdges)
	}
	dedup, err := sess.BFSBatch(g, srcs[:7], Options{Algorithm: OneDFlat, Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if batched.UniqueTraversedEdges != dedup.UniqueTraversedEdges {
		t.Errorf("duplicate source changed unique edges: %d vs %d",
			batched.UniqueTraversedEdges, dedup.UniqueTraversedEdges)
	}
}

// TestProjectRMATBatch: the paper-scale projection of the batched mode
// must amortize at least 4x at full width against its own width-1
// profile, clamp oversized widths, and validate inputs.
func TestProjectRMATBatch(t *testing.T) {
	single, err := ProjectRMATBatch("hopper", 4096, TwoDHybrid, 32, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	full, err := ProjectRMATBatch("hopper", 4096, TwoDHybrid, 32, 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	if amort := single.TotalTime / full.TotalTime; amort < 4 {
		t.Errorf("64-wide projected amortization %.2fx < 4x (%.4gs vs %.4gs)",
			amort, single.TotalTime, full.TotalTime)
	}
	if full.GTEPS <= single.GTEPS {
		t.Errorf("batched per-search GTEPS %.2f not above single %.2f", full.GTEPS, single.GTEPS)
	}
	clamped, err := ProjectRMATBatch("hopper", 4096, TwoDHybrid, 32, 16, 200)
	if err != nil {
		t.Fatal(err)
	}
	if clamped.TotalTime != full.TotalTime {
		t.Error("width 200 not clamped to 64")
	}
	if _, err := ProjectRMATBatch("nosuch", 4096, TwoDHybrid, 32, 16, 64); err == nil {
		t.Error("unknown machine accepted")
	}
}
