package pbfs_test

// Randomized cross-algorithm conformance harness: every algorithm ×
// direction policy × grid shape must agree with the serial oracle —
// bit-identical distances, valid parents, identical traversal
// accounting — on a seeded stream of adversarial graphs (R-MAT, web crawls, directed, disconnected, single-vertex,
// self-loops, stars, paths).
//
// Failures print the graph seed; replay one seed in isolation with
//
//	PBFS_CONFORMANCE_SEED=<seed> go test -run TestConformance

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"

	pbfs "repro"
)

// conformanceGraphs is the number of random graphs in a full run; -short
// trims the stream (the seed space is shared, so any failing seed from a
// full run replays under the same harness).
const conformanceGraphs = 50

// buildConformanceGraph derives one graph from seed, cycling through the
// generator families so every family sees many seeds.
func buildConformanceGraph(seed int64) (*pbfs.Graph, string, error) {
	rng := rand.New(rand.NewSource(seed))
	n := int64(rng.Intn(400) + 2)
	switch seed % 7 {
	case 0:
		scale := rng.Intn(4) + 6 // 64..512 vertices
		ef := rng.Intn(13) + 4
		g, err := pbfs.NewRMATGraph(scale, ef, uint64(seed)+1)
		return g, fmt.Sprintf("rmat scale=%d ef=%d", scale, ef), err
	case 1:
		// The crawl generator lays vertices out over ~140 BFS layers, so
		// it needs a few hundred vertices to exist at all.
		nv := int64(rng.Intn(1024) + 512)
		g, err := pbfs.NewWebCrawlGraph(nv, uint64(seed)+1)
		return g, fmt.Sprintf("webgen n=%d", nv), err
	case 2:
		// Sparse undirected G(n, m) with occasional self-loops.
		m := rng.Intn(3*int(n)) + 1
		edges := make([][2]int64, 0, m)
		for i := 0; i < m; i++ {
			u, v := rng.Int63n(n), rng.Int63n(n)
			if rng.Intn(10) == 0 {
				v = u // self-loop
			}
			edges = append(edges, [2]int64{u, v})
		}
		g, err := pbfs.NewGraphFromEdges(n, edges)
		return g, fmt.Sprintf("random undirected n=%d m=%d", n, m), err
	case 3:
		// Directed: BFS follows stored edge direction.
		m := rng.Intn(4*int(n)) + 1
		edges := make([][2]int64, 0, m)
		for i := 0; i < m; i++ {
			edges = append(edges, [2]int64{rng.Int63n(n), rng.Int63n(n)})
		}
		g, err := pbfs.NewDirectedGraph(n, edges)
		return g, fmt.Sprintf("directed n=%d m=%d", n, m), err
	case 4:
		// Disconnected: two dense-ish blobs plus isolated vertices.
		half := n/2 + 1
		var edges [][2]int64
		for i := 0; i < int(n); i++ {
			edges = append(edges, [2]int64{rng.Int63n(half), rng.Int63n(half)})
			edges = append(edges, [2]int64{half + rng.Int63n(half/2+1), half + rng.Int63n(half/2+1)})
		}
		g, err := pbfs.NewGraphFromEdges(2*half+int64(rng.Intn(5)), edges)
		return g, fmt.Sprintf("disconnected n=%d", 2*half), err
	case 5:
		// Degenerate shapes: single vertex, self-loop only, star, path.
		switch rng.Intn(4) {
		case 0:
			g, err := pbfs.NewGraphFromEdges(1, nil)
			return g, "single vertex", err
		case 1:
			g, err := pbfs.NewGraphFromEdges(3, [][2]int64{{0, 0}, {1, 1}})
			return g, "self-loops only", err
		case 2:
			edges := make([][2]int64, 0, n-1)
			for v := int64(1); v < n; v++ {
				edges = append(edges, [2]int64{0, v})
			}
			g, err := pbfs.NewGraphFromEdges(n, edges)
			return g, fmt.Sprintf("star n=%d", n), err
		default:
			edges := make([][2]int64, 0, n-1)
			for v := int64(1); v < n; v++ {
				edges = append(edges, [2]int64{v - 1, v})
			}
			g, err := pbfs.NewGraphFromEdges(n, edges)
			return g, fmt.Sprintf("path n=%d", n), err
		}
	default:
		// Undirected with heavy self-loop load.
		m := rng.Intn(2*int(n)) + int(n)
		edges := make([][2]int64, 0, m)
		for i := 0; i < m; i++ {
			u := rng.Int63n(n)
			v := u
			if rng.Intn(3) > 0 {
				v = rng.Int63n(n)
			}
			edges = append(edges, [2]int64{u, v})
		}
		g, err := pbfs.NewGraphFromEdges(n, edges)
		return g, fmt.Sprintf("self-loop heavy n=%d", n), err
	}
}

func TestConformance(t *testing.T) {
	seeds := make([]int64, 0, conformanceGraphs)
	if env := os.Getenv("PBFS_CONFORMANCE_SEED"); env != "" {
		s, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("bad PBFS_CONFORMANCE_SEED %q: %v", env, err)
		}
		seeds = append(seeds, s)
	} else {
		count := conformanceGraphs
		if testing.Short() {
			count = 12
		}
		for s := int64(0); s < int64(count); s++ {
			seeds = append(seeds, s)
		}
	}
	for _, seed := range seeds {
		conformanceOneGraph(t, seed)
		if t.Failed() {
			return // one failing seed is enough; it is printed for replay
		}
	}
}

func conformanceOneGraph(t *testing.T, seed int64) {
	fail := func(format string, args ...any) {
		t.Helper()
		t.Errorf("seed %d (replay: PBFS_CONFORMANCE_SEED=%d): %s",
			seed, seed, fmt.Sprintf(format, args...))
	}
	g, desc, err := buildConformanceGraph(seed)
	if err != nil {
		fail("graph build: %v", err)
		return
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var src int64
	if srcs := g.Sources(1, uint64(seed)+3); len(srcs) > 0 {
		src = srcs[0]
	} else {
		src = rng.Int63n(g.NumVerts())
	}
	ref := g.SerialBFS(src)

	ranks := []int{2, 4, 6}[rng.Intn(3)]
	if int64(ranks) > g.NumVerts() {
		ranks = int(g.NumVerts())
	}
	// Two grid shapes per seed out of {closest square, 1×R, R×1}, rotated
	// so every shape family sees many seeds.
	shapeSet := [][2]int{{0, 0}, {1, ranks}, {ranks, 1}}
	shapes := [][2]int{shapeSet[seed%3], shapeSet[(seed+1)%3]}

	sess := pbfs.NewSession()
	defer sess.Close()

	check := func(opt pbfs.Options, what string) {
		res, err := sess.Search(g, src, opt)
		if err != nil {
			fail("%s %s: %v", desc, what, err)
			return
		}
		for v := range ref.Dist {
			if res.Dist[v] != ref.Dist[v] {
				fail("%s %s: dist[%d]=%d, serial %d", desc, what, v, res.Dist[v], ref.Dist[v])
				return
			}
		}
		if err := g.Validate(res); err != nil {
			fail("%s %s: %v", desc, what, err)
			return
		}
		if res.Levels != ref.Levels {
			fail("%s %s: levels %d, serial %d", desc, what, res.Levels, ref.Levels)
			return
		}
		if res.TraversedEdges != ref.TraversedEdges {
			fail("%s %s: traversed %d, serial %d", desc, what, res.TraversedEdges, ref.TraversedEdges)
		}
	}

	dirs := []pbfs.Direction{pbfs.Auto, pbfs.TopDownOnly, pbfs.BottomUpOnly}
	for _, algo := range []pbfs.Algorithm{pbfs.OneDFlat, pbfs.OneDHybrid} {
		for _, dir := range dirs {
			opt := pbfs.Options{Algorithm: algo, Ranks: ranks, Direction: dir}
			check(opt, fmt.Sprintf("%v/%v", algo, dir))
		}
	}
	for _, algo := range []pbfs.Algorithm{pbfs.TwoDFlat, pbfs.TwoDHybrid} {
		for _, shape := range shapes {
			for _, dir := range dirs {
				opt := pbfs.Options{
					Algorithm: algo, Ranks: ranks, Direction: dir,
					GridRows: shape[0], GridCols: shape[1],
				}
				check(opt, fmt.Sprintf("%v/%v/grid=%dx%d", algo, dir, shape[0], shape[1]))
			}
		}
	}
	// Comparator codes: top-down by construction.
	for _, algo := range []pbfs.Algorithm{pbfs.Reference, pbfs.PBGL} {
		check(pbfs.Options{Algorithm: algo, Ranks: ranks}, algo.String())
	}
	if t.Failed() {
		t.Logf("graph: %s, source %d, ranks %d", desc, src, ranks)
	}
}

// batchConformanceGraphs is the seed count for the batched lane; the
// matrix below is wider per seed (four batch widths per configuration),
// so the stream is shorter than the sequential lane's. The seed space is
// shared with TestConformance: PBFS_CONFORMANCE_SEED replays either.
const batchConformanceGraphs = 12

// TestBatchConformance is the batched lane: for every seeded graph,
// BFSBatch over k ∈ {1, 3, 17, 64} sources — including a guaranteed
// duplicate and, when the graph has one, a source unreachable from the
// rest of the batch — must produce distances bit-identical to k
// sequential Session.Search runs, across algorithms × directions × grid
// shapes (bit-parallel 1D and 2D paths plus the sequential fallbacks).
func TestBatchConformance(t *testing.T) {
	seeds := make([]int64, 0, batchConformanceGraphs)
	if env := os.Getenv("PBFS_CONFORMANCE_SEED"); env != "" {
		s, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("bad PBFS_CONFORMANCE_SEED %q: %v", env, err)
		}
		seeds = append(seeds, s)
	} else {
		count := batchConformanceGraphs
		if testing.Short() {
			count = 4
		}
		for s := int64(0); s < int64(count); s++ {
			seeds = append(seeds, s)
		}
	}
	for _, seed := range seeds {
		batchConformanceOneGraph(t, seed)
		if t.Failed() {
			return // one failing seed is enough; it is printed for replay
		}
	}
}

func batchConformanceOneGraph(t *testing.T, seed int64) {
	fail := func(format string, args ...any) {
		t.Helper()
		t.Errorf("seed %d (replay: PBFS_CONFORMANCE_SEED=%d): %s",
			seed, seed, fmt.Sprintf(format, args...))
	}
	g, desc, err := buildConformanceGraph(seed)
	if err != nil {
		fail("graph build: %v", err)
		return
	}
	rng := rand.New(rand.NewSource(seed ^ 0xba7c4))
	ranks := []int{2, 4, 6}[rng.Intn(3)]
	if int64(ranks) > g.NumVerts() {
		ranks = int(g.NumVerts())
	}
	shapeSet := [][2]int{{0, 0}, {1, ranks}, {ranks, 1}}
	shapes := [][2]int{shapeSet[seed%3], shapeSet[(seed+1)%3]}

	sess := pbfs.NewSession()
	defer sess.Close()

	// Sequential baseline, one Session.Search per distinct source. The
	// sequential lane (TestConformance) pins every configuration's Search
	// to the serial oracle, so one configuration's distances stand for
	// them all here.
	seqDist := make(map[int64][]int64)
	sequential := func(src int64) []int64 {
		if d, ok := seqDist[src]; ok {
			return d
		}
		res, err := sess.Search(g, src, pbfs.Options{Algorithm: pbfs.OneDFlat, Ranks: ranks})
		if err != nil {
			t.Fatalf("seed %d: sequential baseline from %d: %v", seed, src, err)
		}
		seqDist[src] = res.Dist
		return res.Dist
	}

	// makeSources builds a k-wide batch from the large component, padded
	// with duplicates, with srcs[1] a guaranteed duplicate of srcs[0] and
	// srcs[2] a source unreachable from srcs[0] when the graph has one.
	makeSources := func(k int) []int64 {
		srcs := g.Sources(k, uint64(seed)+7)
		if len(srcs) == 0 {
			srcs = []int64{rng.Int63n(g.NumVerts())}
		}
		for len(srcs) < k {
			srcs = append(srcs, srcs[rng.Intn(len(srcs))])
		}
		if k >= 2 {
			srcs[1] = srcs[0]
		}
		if k >= 3 {
			base := sequential(srcs[0])
			for v := int64(0); v < g.NumVerts(); v++ {
				if base[v] == pbfs.Unreached {
					srcs[2] = v
					break
				}
			}
		}
		return srcs
	}
	batches := map[int][]int64{}
	for _, k := range []int{1, 3, 17, 64} {
		batches[k] = makeSources(k)
	}

	checkBatch := func(opt pbfs.Options, what string) {
		for _, k := range []int{1, 3, 17, 64} {
			srcs := batches[k]
			br, err := sess.BFSBatch(g, srcs, opt)
			if err != nil {
				fail("%s %s k=%d: %v", desc, what, k, err)
				return
			}
			if len(br.Results) != len(srcs) {
				fail("%s %s k=%d: %d results", desc, what, k, len(br.Results))
				return
			}
			for i, res := range br.Results {
				want := sequential(srcs[i])
				for v := range want {
					if res.Dist[v] != want[v] {
						fail("%s %s k=%d: source %d dist[%d]=%d, sequential %d",
							desc, what, k, srcs[i], v, res.Dist[v], want[v])
						return
					}
				}
			}
		}
	}

	dirs := []pbfs.Direction{pbfs.Auto, pbfs.TopDownOnly, pbfs.BottomUpOnly}
	for _, algo := range []pbfs.Algorithm{pbfs.OneDFlat, pbfs.OneDHybrid} {
		for _, dir := range dirs {
			checkBatch(pbfs.Options{Algorithm: algo, Ranks: ranks, Direction: dir},
				fmt.Sprintf("%v/%v", algo, dir))
		}
	}
	for _, algo := range []pbfs.Algorithm{pbfs.TwoDFlat, pbfs.TwoDHybrid} {
		for _, shape := range shapes {
			for _, dir := range dirs {
				checkBatch(pbfs.Options{
					Algorithm: algo, Ranks: ranks, Direction: dir,
					GridRows: shape[0], GridCols: shape[1],
				}, fmt.Sprintf("%v/%v/grid=%dx%d", algo, dir, shape[0], shape[1]))
			}
		}
	}
	// Sequential-fallback engine: the comparator codes take the
	// per-source path under the same contract.
	checkBatch(pbfs.Options{Algorithm: pbfs.Reference, Ranks: ranks}, "reference")
	if t.Failed() {
		t.Logf("graph: %s, ranks %d", desc, ranks)
	}
}
