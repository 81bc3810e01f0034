package pbfs

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"
)

func TestTraceProfiles(t *testing.T) {
	g, err := NewWebCrawlGraph(1<<12, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algorithm{OneDFlat, TwoDFlat} {
		res, err := g.BFS(0, Options{Algorithm: algo, Ranks: 4, Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(res.LevelFrontier)) != res.Levels {
			t.Fatalf("%v: trace has %d levels, result says %d", algo, len(res.LevelFrontier), res.Levels)
		}
		var sum int64
		for _, c := range res.LevelFrontier {
			if c <= 0 {
				t.Fatalf("%v: non-positive frontier count %d", algo, c)
			}
			sum += c
		}
		// Every vertex except the source is discovered exactly once.
		var reached int64
		for _, d := range res.Dist {
			if d != Unreached {
				reached++
			}
		}
		if sum != reached-1 {
			t.Errorf("%v: trace sums to %d, want %d (reached minus source)", algo, sum, reached-1)
		}
	}
}

// levelDirs renders a LevelBottomUp trace as one letter per iteration:
// 't' for top-down, 'b' for bottom-up.
func levelDirs(bu []bool) string {
	b := make([]byte, len(bu))
	for l, up := range bu {
		b[l] = 't'
		if up {
			b[l] = 'b'
		}
	}
	return string(b)
}

// TestCommVolumeTraceGolden pins the per-level profile of every
// distributed driver on a fixed instance: the communication volume, the
// scanned entries, the direction and the discoveries of each iteration,
// for single searches and for one 8-source batch per layout. The golden
// rows also document the direction-optimization story — under Auto the
// heavy middle levels exchange a dense bitmap instead of the sparse
// volumes visible in the top-down rows.
func TestCommVolumeTraceGolden(t *testing.T) {
	g, err := NewRMATGraph(10, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	src := g.Sources(1, 9)[0]
	srcs := g.Sources(8, 9)
	golden := []struct {
		algo     Algorithm
		dir      Direction
		batch    bool
		words    []int64
		scanned  []int64
		dirs     string
		frontier []int64
	}{
		{OneDFlat, Auto, false, []int64{2, 582, 32, 16, 18},
			[]int64{1, 373, 375, 9, 9}, "ttbbt", []int64{1, 372, 349, 9}},
		{OneDFlat, TopDownOnly, false, []int64{2, 582, 2856, 912, 18},
			[]int64{1, 373, 9057, 1340, 9}, "ttttt", []int64{1, 372, 349, 9}},
		{TwoDFlat, Auto, false, []int64{4, 747, 1068, 50, 33},
			[]int64{1, 373, 557, 9, 9}, "ttbbt", []int64{1, 372, 349, 9}},
		{TwoDFlat, TopDownOnly, false, []int64{4, 747, 2900, 1406, 33},
			[]int64{1, 373, 9057, 1340, 9}, "ttttt", []int64{1, 372, 349, 9}},
		{OneDHybrid, Auto, false, []int64{2, 582, 32, 16, 18},
			[]int64{1, 373, 375, 9, 9}, "ttbbt", []int64{1, 372, 349, 9}},
		{TwoDHybrid, Auto, false, []int64{4, 747, 1068, 50, 33},
			[]int64{1, 373, 557, 9, 9}, "ttbbt", []int64{1, 372, 349, 9}},
		{OneDFlat, Auto, true, []int64{189, 1024, 1024, 1024, 1024, 87},
			[]int64{75, 10770, 9506, 785, 34, 36}, "tbbbbt", []int64{75, 2321, 2706, 712, 34}},
		{OneDHybrid, Auto, true, []int64{189, 1024, 1024, 1024, 1024, 87},
			[]int64{75, 10770, 9506, 785, 34, 36}, "tbbbbt", []int64{75, 2321, 2706, 712, 34}},
		{TwoDFlat, Auto, true, []int64{251, 9168, 6434, 4937, 2156, 198},
			[]int64{75, 10780, 9510, 1308, 36, 36}, "tbbbbt", []int64{75, 2321, 2706, 712, 34}},
		{TwoDHybrid, Auto, true, []int64{251, 9168, 6434, 4937, 2156, 198},
			[]int64{75, 10780, 9510, 1308, 36, 36}, "tbbbbt", []int64{75, 2321, 2706, 712, 34}},
	}
	sess := NewSession()
	defer sess.Close()
	for _, gc := range golden {
		opt := Options{
			Algorithm: gc.algo, Ranks: 4, Machine: "franklin",
			Direction: gc.dir, Trace: true,
		}
		var words, scanned, frontier []int64
		var bu []bool
		var sent int64
		if gc.batch {
			res, err := sess.BFSBatch(g, srcs, opt)
			if err != nil {
				t.Fatal(err)
			}
			words, scanned, frontier, bu = res.LevelCommWords, res.LevelScanned, res.LevelFrontier, res.LevelBottomUp
			sent = res.SentWords
		} else {
			res, err := sess.Search(g, src, opt)
			if err != nil {
				t.Fatal(err)
			}
			words, scanned, frontier, bu = res.LevelCommWords, res.LevelScanned, res.LevelFrontier, res.LevelBottomUp
			sent = res.SentWords
		}
		name := fmt.Sprintf("%v/%v batch=%v", gc.algo, gc.dir, gc.batch)
		if !slices.Equal(words, gc.words) {
			t.Errorf("%s: per-level words %v, golden %v", name, words, gc.words)
		}
		if !slices.Equal(scanned, gc.scanned) {
			t.Errorf("%s: per-level scanned %v, golden %v", name, scanned, gc.scanned)
		}
		if d := levelDirs(bu); d != gc.dirs {
			t.Errorf("%s: per-level directions %q, golden %q", name, d, gc.dirs)
		}
		if !slices.Equal(frontier, gc.frontier) {
			t.Errorf("%s: per-level frontier %v, golden %v", name, frontier, gc.frontier)
		}
		var sum int64
		for _, w := range words {
			sum += w
		}
		if sum != sent {
			t.Errorf("%s: per-level volumes sum to %d, total %d", name, sum, sent)
		}
	}
}

func TestTraceOffByDefault(t *testing.T) {
	g := testGraph(t)
	res, err := g.BFS(g.Sources(1, 1)[0], Options{Algorithm: OneDFlat, Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.LevelFrontier != nil {
		t.Error("trace recorded without Options.Trace")
	}
}

func TestGraphFileRoundTrip(t *testing.T) {
	// End-to-end through cmd/graphgen's format: write with the library,
	// load with the facade, traverse.
	dir := t.TempDir()
	path := filepath.Join(dir, "g.edges")

	// Use the graphgen binary if buildable (full integration); fall back
	// to the library path if go build is unavailable in the sandbox.
	bin := filepath.Join(dir, "graphgen")
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/graphgen")
	build.Env = os.Environ()
	if err := build.Run(); err != nil {
		t.Skipf("cannot build graphgen: %v", err)
	}
	gen := exec.Command(bin, "-kind", "rmat", "-scale", "9", "-edgefactor", "8", "-o", path)
	if out, err := gen.CombinedOutput(); err != nil {
		t.Fatalf("graphgen: %v\n%s", err, out)
	}
	verify := exec.Command(bin, "-verify", path)
	if out, err := verify.CombinedOutput(); err != nil {
		t.Fatalf("graphgen -verify: %v\n%s", err, out)
	}

	g, err := NewGraphFromFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVerts() != 512 {
		t.Errorf("NumVerts = %d", g.NumVerts())
	}
	src := g.Sources(1, 1)[0]
	res, err := g.BFS(src, Options{Algorithm: TwoDFlat, Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(res); err != nil {
		t.Error(err)
	}
}

func TestGraphFileErrors(t *testing.T) {
	if _, err := NewGraphFromFile("/nonexistent/g.edges"); err == nil {
		t.Error("missing file accepted")
	}
	path := filepath.Join(t.TempDir(), "bad.edges")
	if err := os.WriteFile(path, []byte("not an edge file"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewGraphFromFile(path); err == nil {
		t.Error("garbage file accepted")
	}
}
