package pbfs

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/prng"
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

// sameBits reports whether a and b are the same float64, bit for bit.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// sameSearch fails unless got reports exactly what the single search
// want reported: answers, counts, volumes, and times bit for bit.
func sameSearch(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if got.Source != want.Source || !slices.Equal(got.Dist, want.Dist) || !slices.Equal(got.Parent, want.Parent) {
		t.Fatalf("%s: source/dist/parent differ from Search", label)
	}
	if got.Levels != want.Levels || got.TraversedEdges != want.TraversedEdges ||
		got.ScannedTopDown != want.ScannedTopDown || got.ScannedBottomUp != want.ScannedBottomUp {
		t.Fatalf("%s: levels/edges/scanned %d/%d/%d+%d, Search %d/%d/%d+%d", label,
			got.Levels, got.TraversedEdges, got.ScannedTopDown, got.ScannedBottomUp,
			want.Levels, want.TraversedEdges, want.ScannedTopDown, want.ScannedBottomUp)
	}
	if got.SentWords != want.SentWords || got.RecvWords != want.RecvWords {
		t.Fatalf("%s: words %d/%d, Search %d/%d", label,
			got.SentWords, got.RecvWords, want.SentWords, want.RecvWords)
	}
	if !sameBits(got.SimTime, want.SimTime) || !sameBits(got.CommTime, want.CommTime) {
		t.Fatalf("%s: sim/comm %v/%v, Search %v/%v", label,
			got.SimTime, got.CommTime, want.SimTime, want.CommTime)
	}
	if !maps.EqualFunc(got.CommByPhase, want.CommByPhase, sameBits) {
		t.Fatalf("%s: comm by phase %v, Search %v", label, got.CommByPhase, want.CommByPhase)
	}
	if !slices.Equal(got.LevelFrontier, want.LevelFrontier) || !slices.Equal(got.LevelScanned, want.LevelScanned) ||
		!slices.Equal(got.LevelBottomUp, want.LevelBottomUp) || !slices.Equal(got.LevelCommWords, want.LevelCommWords) {
		t.Fatalf("%s: level profile differs from Search", label)
	}
}

// reachedEdges is the reached-set union count of one search: each edge
// incident to a vertex it reached, counted once.
func reachedEdges(g *Graph, res *Result) int64 {
	var adj int64
	for v, d := range res.Dist {
		if d != Unreached {
			adj += g.Degree(int64(v))
		}
	}
	return adj / 2
}

// TestBFSBatchOneSourceIsSearch pins the one-source route: for every
// algorithm, on an undirected and a directed graph, traced or not,
// BFSBatch with one source reports exactly what Search reports, and
// the batch totals are that search's own.
func TestBFSBatchOneSourceIsSearch(t *testing.T) {
	rng := prng.New(0x1b5)
	const n = 600
	var edges [][2]int64
	for i := 0; i < 3000; i++ {
		edges = append(edges, [2]int64{rng.Int64n(n), rng.Int64n(n)})
	}
	directed, err := NewDirectedGraph(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession()
	defer sess.Close()
	for gname, g := range map[string]*Graph{"undirected": testGraph(t), "directed": directed} {
		src := g.Sources(1, 0x51)[0]
		for _, tc := range []struct {
			name string
			opt  Options
		}{
			{"1d-flat", Options{Algorithm: OneDFlat, Ranks: 4, Machine: "franklin"}},
			{"1d-hybrid", Options{Algorithm: OneDHybrid, Ranks: 4, Threads: 2, Machine: "franklin"}},
			{"2d-flat", Options{Algorithm: TwoDFlat, Ranks: 6, GridRows: 2, GridCols: 3, Machine: "franklin"}},
			{"2d-hybrid", Options{Algorithm: TwoDHybrid, Ranks: 4, Threads: 2, Machine: "franklin"}},
			{"reference", Options{Algorithm: Reference, Ranks: 4, Machine: "franklin"}},
			{"pbgl", Options{Algorithm: PBGL, Ranks: 4, Machine: "franklin"}},
		} {
			for _, trace := range []bool{false, true} {
				opt := tc.opt
				opt.Trace = trace
				label := fmt.Sprintf("%s/%s/trace=%v", gname, tc.name, trace)
				want, err := sess.Search(g, src, opt)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				br, err := sess.BFSBatch(g, []int64{src}, opt)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if len(br.Results) != 1 || !slices.Equal(br.Sources, []int64{src}) {
					t.Fatalf("%s: %d results for sources %v", label, len(br.Results), br.Sources)
				}
				got := br.Results[0]
				sameSearch(t, label, want, got)
				if want.SimTime <= 0 {
					t.Fatalf("%s: search charged no simulated time", label)
				}
				if br.BatchLevels != want.Levels {
					t.Errorf("%s: batch levels %d, search levels %d", label, br.BatchLevels, want.Levels)
				}
				if br.ScannedTopDown != want.ScannedTopDown || br.ScannedBottomUp != want.ScannedBottomUp ||
					br.SentWords != want.SentWords || br.RecvWords != want.RecvWords {
					t.Errorf("%s: batch scans or words differ from the search's", label)
				}
				if !sameBits(br.SimTime, want.SimTime) || !sameBits(br.CommTime, want.CommTime) ||
					!maps.EqualFunc(br.CommByPhase, want.CommByPhase, sameBits) {
					t.Errorf("%s: batch sim/comm %v/%v, search %v/%v", label,
						br.SimTime, br.CommTime, want.SimTime, want.CommTime)
				}
				if u := reachedEdges(g, got); br.UniqueTraversedEdges != u {
					t.Errorf("%s: unique edges %d, reached-set union %d", label, br.UniqueTraversedEdges, u)
				}
				if !slices.Equal(br.LevelFrontier, want.LevelFrontier) || !slices.Equal(br.LevelScanned, want.LevelScanned) ||
					!slices.Equal(br.LevelBottomUp, want.LevelBottomUp) || !slices.Equal(br.LevelCommWords, want.LevelCommWords) {
					t.Errorf("%s: batch level profile differs from the search's", label)
				}
				// The comparator codes record no level profile.
				profiled := tc.opt.Algorithm != Reference && tc.opt.Algorithm != PBGL
				if trace && profiled && len(br.LevelFrontier) == 0 {
					t.Errorf("%s: traced one-source batch has no level profile", label)
				}
			}
		}
	}
}

// TestBFSBatchOneSourceTail: the one-source tail of a 65-source batch
// runs the single search too, and its totals add to the 64-wide
// chunk's.
func TestBFSBatchOneSourceTail(t *testing.T) {
	g := testGraph(t)
	srcs := batchSources(t, g, BatchWidth+1)
	opt := Options{Algorithm: OneDFlat, Ranks: 4, Machine: "franklin"}
	sess := NewSession()
	defer sess.Close()
	head, err := sess.BFSBatch(g, srcs[:BatchWidth], opt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sess.Search(g, srcs[BatchWidth], opt)
	if err != nil {
		t.Fatal(err)
	}
	br, err := sess.BFSBatch(g, srcs, opt)
	if err != nil {
		t.Fatal(err)
	}
	sameSearch(t, "tail", want, br.Results[BatchWidth])
	if br.BatchLevels != head.BatchLevels+want.Levels {
		t.Errorf("batch levels %d, want 64-wide %d + tail search %d", br.BatchLevels, head.BatchLevels, want.Levels)
	}
	if br.SimTime != head.SimTime+want.SimTime {
		t.Errorf("batch sim %v, want 64-wide %v + tail search %v", br.SimTime, head.SimTime, want.SimTime)
	}
	if br.UniqueTraversedEdges != head.UniqueTraversedEdges+want.TraversedEdges {
		t.Errorf("unique edges %d, want 64-wide %d + tail search %d",
			br.UniqueTraversedEdges, head.UniqueTraversedEdges, want.TraversedEdges)
	}
}

// TestBFSBatchTwoSourcesShareTheLoop guards the other side of the
// route: a two-source 1D batch still runs one shared level loop, so it
// pays the deeper search's levels, not the sum of both.
func TestBFSBatchTwoSourcesShareTheLoop(t *testing.T) {
	g := testGraph(t)
	srcs := g.Sources(2, 0x2b)
	opt := Options{Algorithm: OneDFlat, Ranks: 4, Machine: "franklin"}
	sess := NewSession()
	defer sess.Close()
	br, err := sess.BFSBatch(g, srcs, opt)
	if err != nil {
		t.Fatal(err)
	}
	var levels []int64
	for _, src := range srcs {
		res, err := sess.Search(g, src, opt)
		if err != nil {
			t.Fatal(err)
		}
		levels = append(levels, res.Levels)
	}
	if want := max(levels[0], levels[1]); br.BatchLevels != want {
		t.Errorf("two-source batch levels %d, want the deeper search's %d (searches %v)",
			br.BatchLevels, want, levels)
	}
}

// TestNarrowBatchCrossover measures what a k-wide batch costs against
// the k single searches it replaces, on the serving layout (16 ranks,
// franklin, Auto) for 1D and 2D flat on an R-MAT graph and a crawl. It
// logs batch ÷ sum-of-searches on both clocks for k = 1, 2, 3, 4, 8
// (wall: best of three, host-dependent, logged only) and pins k = 1 at
// exactly 1.0 simulated, since a one-source batch is the search.
func TestNarrowBatchCrossover(t *testing.T) {
	rmat, err := NewRMATGraph(14, 16, 191)
	if err != nil {
		t.Fatal(err)
	}
	crawl, err := NewWebCrawlGraph(1<<13, 191)
	if err != nil {
		t.Fatal(err)
	}
	widths := []int{1, 2, 3, 4, 8}
	bestWall := func(run func() (float64, error)) (sim float64, wall time.Duration) {
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			s, err := run()
			if err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); rep == 0 || d < wall {
				wall = d
			}
			sim = s
		}
		return sim, wall
	}
	for _, gc := range []struct {
		name string
		g    *Graph
	}{{"rmat-14", rmat}, {"crawl-8192", crawl}} {
		srcs := gc.g.Sources(widths[len(widths)-1], 0xc0)
		if len(srcs) < widths[len(widths)-1] {
			t.Fatalf("%s: %d sources", gc.name, len(srcs))
		}
		for _, opt := range []Options{
			{Algorithm: OneDFlat, Ranks: 16, Machine: "franklin"},
			{Algorithm: TwoDFlat, Ranks: 16, Machine: "franklin"},
		} {
			sess := NewSession()
			singleSim := make([]float64, len(srcs))
			singleWall := make([]time.Duration, len(srcs))
			for i, src := range srcs {
				singleSim[i], singleWall[i] = bestWall(func() (float64, error) {
					res, err := sess.Search(gc.g, src, opt)
					if err != nil {
						return 0, err
					}
					return res.SimTime, nil
				})
			}
			for _, k := range widths {
				sim, wall := bestWall(func() (float64, error) {
					br, err := sess.BFSBatch(gc.g, srcs[:k], opt)
					if err != nil {
						return 0, err
					}
					return br.SimTime, nil
				})
				var sumSim float64
				var sumWall time.Duration
				for i := 0; i < k; i++ {
					sumSim += singleSim[i]
					sumWall += singleWall[i]
				}
				ratio := sim / sumSim
				t.Logf("%-10s %-6v k=%d  sim batch/singles %5.2f  wall %5.2f",
					gc.name, opt.Algorithm, k, ratio, float64(wall)/float64(sumWall))
				if k == 1 && ratio != 1 {
					t.Errorf("%s %v: one-source batch costs %v of its search's simulated time, want exactly 1",
						gc.name, opt.Algorithm, ratio)
				}
			}
			sess.Close()
		}
	}
}
