package bench

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"repro/internal/netmodel"
	"repro/internal/perfmodel"
)

func TestRunEmulatedAllAlgos(t *testing.T) {
	el, err := rmatEdges(11, 8, 0x1)
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
		threads := 1
		if algo.Hybrid() {
			threads = 4
		}
		res, err := RunEmulated(el, EmuConfig{
			Machine: netmodel.Franklin(), Algo: algo, Ranks: ranks, Threads: threads,
			Sources: 2, Seed: 0x2, Validate: true,
		})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if res.Stats.NumRuns != 2 {
			t.Errorf("%v: %d runs", algo, res.Stats.NumRuns)
		}
		if res.Stats.MeanTime <= 0 || res.Stats.HarmonicMeanTEPS <= 0 {
			t.Errorf("%v: empty stats %+v", algo, res.Stats)
		}
		if len(res.PerRankComm) != ranks {
			t.Errorf("%v: per-rank comm has %d entries", algo, len(res.PerRankComm))
		}
	}
}

func TestRunEmulatedRectangular2D(t *testing.T) {
	// A non-square rank count runs on its closest-square factorization
	// (6 -> 2x3) and validates against the serial oracle.
	el, err := rmatEdges(10, 8, 0x3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunEmulated(el, EmuConfig{
		Machine: netmodel.Franklin(), Algo: perfmodel.TwoDFlat, Ranks: 6, Sources: 1,
		Validate: true,
	})
	if err != nil {
		t.Fatalf("rectangular 2D emulation failed: %v", err)
	}
	if res.Stats.HarmonicMeanTEPS <= 0 {
		t.Errorf("empty stats %+v", res.Stats)
	}
	if len(res.PerRankComm) != 6 {
		t.Errorf("per-rank comm has %d entries, want 6", len(res.PerRankComm))
	}
}

func TestExperimentRegistry(t *testing.T) {
	names := Names()
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
