package pbfs

import (
	"os"
	"os/exec"
	"path/filepath"
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

// TestCommVolumeTraceGolden pins the per-level communication volume
// profile of both distributed drivers on a fixed instance. The golden
// rows also document the direction-optimization story — under Auto the
// heavy middle levels exchange a dense bitmap instead of the sparse
// volumes visible in the top-down rows.
func TestCommVolumeTraceGolden(t *testing.T) {
	g, err := NewRMATGraph(10, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	src := g.Sources(1, 9)[0]
	golden := []struct {
		algo  Algorithm
		dir   Direction
		words []int64
	}{
		{OneDFlat, Auto, []int64{2, 582, 32, 16, 18}},
		{OneDFlat, TopDownOnly, []int64{2, 582, 2856, 912, 18}},
		{TwoDFlat, Auto, []int64{4, 747, 1068, 50, 33}},
		{TwoDFlat, TopDownOnly, []int64{4, 747, 2900, 1406, 33}},
	}
	sess := NewSession()
	defer sess.Close()
	for _, gc := range golden {
		res, err := sess.Search(g, src, Options{
			Algorithm: gc.algo, Ranks: 4, Machine: "franklin",
			Direction: gc.dir, Trace: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.LevelCommWords) != len(gc.words) {
			t.Fatalf("%v/%v: %d traced levels, want %d (%v)",
				gc.algo, gc.dir, len(res.LevelCommWords), len(gc.words), res.LevelCommWords)
		}
		var sum int64
		for l, w := range res.LevelCommWords {
			sum += w
			if w != gc.words[l] {
				t.Errorf("%v/%v level %d: %d words, golden %d",
					gc.algo, gc.dir, l+1, w, gc.words[l])
			}
		}
		if sum != res.SentWords {
			t.Errorf("%v/%v: per-level volumes sum to %d, total %d",
				gc.algo, gc.dir, sum, res.SentWords)
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
