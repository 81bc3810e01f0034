package bench

import (
	"bytes"
	"sort"
	"strconv"
	"strings"
	"testing"

	pbfs "repro"
	"repro/internal/perfmodel"
)

func TestRunEmulatedAllAlgos(t *testing.T) {
	g, err := pbfs.NewRMATGraph(11, 8, 0x1)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []perfmodel.Algo{
		perfmodel.OneDFlat, perfmodel.OneDHybrid, perfmodel.TwoDFlat,
		perfmodel.TwoDHybrid, perfmodel.Reference, perfmodel.PBGL,
	} {
		ranks := 9
		if algo == perfmodel.OneDFlat || algo == perfmodel.Reference || algo == perfmodel.PBGL {
			ranks = 6
		}
		res, err := runEmulated(g, algo, ranks, "franklin", 2, 0x2)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if res.NumRuns != 2 {
			t.Errorf("%v: %d runs", algo, res.NumRuns)
		}
		if res.MeanTime <= 0 || res.HarmonicMeanTEPS <= 0 {
			t.Errorf("%v: empty stats %+v", algo, res.Stats)
		}
	}
}

func TestRunEmulatedRectangular2D(t *testing.T) {
	// A non-square rank count runs on its closest-square factorization
	// (6 -> 2x3) and validates against the serial oracle.
	g, err := pbfs.NewRMATGraph(10, 8, 0x3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runEmulated(g, perfmodel.TwoDFlat, 6, "franklin", 1, 0)
	if err != nil {
		t.Fatalf("rectangular 2D emulation failed: %v", err)
	}
	if res.HarmonicMeanTEPS <= 0 {
		t.Errorf("empty stats %+v", res.Stats)
	}
}

func TestExperimentRegistry(t *testing.T) {
	var names []string
	for _, e := range Experiments() {
		names = append(names, e.Name)
	}
	sort.Strings(names)
	want := []string{"fig10", "fig11", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "impact", "refcomp", "table1", "table2"}
	if len(names) != len(want) {
		t.Fatalf("got %d experiments: %v", len(names), names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("experiment %d = %s, want %s", i, names[i], want[i])
		}
	}
	if _, ok := Lookup("table1"); !ok {
		t.Error("Lookup(table1) failed")
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup(nope) succeeded")
	}
}

// TestProjectedExperimentsRun executes every driver in projected-only
// mode (fast) and checks each produces output mentioning its figure.
func TestProjectedExperimentsRun(t *testing.T) {
	for _, e := range Experiments() {
		if e.Name == "fig3" || e.Name == "fig4" {
			continue // always-emulated drivers, covered below
		}
		var buf bytes.Buffer
		if err := e.Run(&buf, false); err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if buf.Len() == 0 {
			t.Errorf("%s produced no output", e.Name)
		}
		if !strings.Contains(buf.String(), "projected") {
			t.Errorf("%s output lacks projected block", e.Name)
		}
	}
}

func TestFigure3Crossover(t *testing.T) {
	// The measured SPA/heap speedup must decline as frontiers thin
	// (growing process count), starting SPA-favoured and ending
	// heap-favoured — the paper's crossover near 10k processes.
	var buf bytes.Buffer
	if err := Figure3(&buf, 8); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	var speedups []float64
	for _, ln := range strings.Split(strings.TrimSpace(out), "\n") {
		fields := strings.Fields(ln)
		if len(fields) != 6 || !strings.HasSuffix(fields[5], "x") {
			continue
		}
		sp, err := strconv.ParseFloat(strings.TrimSuffix(fields[5], "x"), 64)
		if err != nil {
			continue
		}
		speedups = append(speedups, sp)
	}
	if len(speedups) != 7 {
		t.Fatalf("parsed %d speedup rows from:\n%s", len(speedups), out)
	}
	first, last := speedups[0], speedups[len(speedups)-1]
	if first < 1.2 {
		t.Errorf("SPA should win clearly at 512 processes: speedup %.2f", first)
	}
	if last >= 1 {
		t.Errorf("heap should win at 40000 processes: speedup %.2f", last)
	}
	if first <= last {
		t.Errorf("speedup should decline: first %.2f, last %.2f", first, last)
	}
}
