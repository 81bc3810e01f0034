package pbfs

import (
	"math"
	"testing"

	"repro/internal/decis"
)

// TestDecisionsRecorded checks that a traced run under each distributed
// driver records its policy decisions with the globally agreed inputs:
// one direction decision per post-source level under Auto, and a grid
// decision only for a derived 2D shape.
func TestDecisionsRecorded(t *testing.T) {
	g, err := NewRMATGraph(10, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	src := g.Sources(1, 9)[0]
	sess := NewSession()
	defer sess.Close()

	for _, algo := range []Algorithm{OneDFlat, TwoDFlat} {
		res, err := sess.Search(g, src, Options{
			Algorithm: algo, Ranks: 4, Machine: "franklin", Trace: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		var dirs, grids int
		for _, d := range res.Decisions {
			switch d.Kind {
			case decis.KindDirection:
				dirs++
				if d.Frontier <= 0 || d.Alpha != 14 || d.Beta != 24 {
					t.Errorf("%v: direction decision inputs %+v", algo, d)
				}
				if len(d.Alternatives) != 1 || d.Alternatives[0] == d.Choice {
					t.Errorf("%v: direction alternatives %v vs choice %q", algo, d.Alternatives, d.Choice)
				}
			case decis.KindGrid:
				grids++
				if d.Choice != "2x2" || len(d.Alternatives) != 2 {
					t.Errorf("%v: grid decision %q alts %v", algo, d.Choice, d.Alternatives)
				}
			default:
				t.Errorf("%v: unknown decision kind %q", algo, d.Kind)
			}
		}
		// Direction decisions cover every level transition after the
		// source level: one per traced frontier beyond the first.
		if want := len(res.LevelFrontier) - 1; dirs < want {
			t.Errorf("%v: %d direction decisions, want >= %d", algo, dirs, want)
		}
		wantGrids := 0
		if algo == TwoDFlat {
			wantGrids = 1
		}
		if grids != wantGrids {
			t.Errorf("%v: %d grid decisions, want %d", algo, grids, wantGrids)
		}
	}

	// Trace off → no decisions; explicit grid → no grid decision.
	res, err := sess.Search(g, src, Options{Algorithm: TwoDFlat, Ranks: 4, Machine: "franklin"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Decisions != nil {
		t.Error("decisions recorded without Options.Trace")
	}
	res, err = sess.Search(g, src, Options{
		Algorithm: TwoDFlat, Ranks: 4, GridRows: 1, GridCols: 4,
		Machine: "franklin", Trace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Decisions {
		if d.Kind == decis.KindGrid {
			t.Error("grid decision recorded for an explicitly pinned grid")
		}
	}
}

// TestCounterfactualReplay runs the full replay on both drivers: every
// rejected alternative re-executes without diverging (Counterfactual
// errors on any distance mismatch), regrets are finite, and the base
// simulated time matches a plain traced search.
func TestCounterfactualReplay(t *testing.T) {
	g, err := NewRMATGraph(10, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	src := g.Sources(1, 9)[0]
	sess := NewSession()
	defer sess.Close()

	for _, algo := range []Algorithm{OneDFlat, TwoDFlat} {
		rep, err := sess.Counterfactual(g, src, Options{
			Algorithm: algo, Ranks: 4, Machine: "franklin",
		})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if len(rep.Decisions) == 0 || len(rep.Replays) == 0 {
			t.Fatalf("%v: empty report (%d decisions, %d replays)",
				algo, len(rep.Decisions), len(rep.Replays))
		}
		if rep.BaseSim <= 0 {
			t.Errorf("%v: base sim time %v", algo, rep.BaseSim)
		}
		for _, cf := range rep.Replays {
			if math.IsNaN(cf.Regret) || math.IsInf(cf.Regret, 0) {
				t.Errorf("%v: non-finite regret %v for %v→%q", algo, cf.Regret, cf.Decision.Kind, cf.Alternative)
			}
			if cf.AltSim <= 0 {
				t.Errorf("%v: alt sim %v for %v→%q", algo, cf.AltSim, cf.Decision.Kind, cf.Alternative)
			}
			if got := cf.AltSim - cf.BaseSim; math.Abs(got-cf.Regret) > 1e-12 {
				t.Errorf("%v: regret %v != AltSim-BaseSim %v", algo, cf.Regret, got)
			}
		}
	}
}

// TestCounterfactualDeterministic pins that two replays of the same
// search produce identical regret tables — the property the CI smoke
// diffs on.
func TestCounterfactualDeterministic(t *testing.T) {
	g, err := NewRMATGraph(10, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	src := g.Sources(1, 9)[0]
	opt := Options{Algorithm: TwoDFlat, Ranks: 4, Machine: "franklin"}

	sess := NewSession()
	defer sess.Close()
	a, err := sess.Counterfactual(g, src, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sess.Counterfactual(g, src, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Replays) != len(b.Replays) {
		t.Fatalf("replay counts differ: %d vs %d", len(a.Replays), len(b.Replays))
	}
	for i := range a.Replays {
		x, y := a.Replays[i], b.Replays[i]
		if x.Decision.Kind != y.Decision.Kind || x.Decision.Level != y.Decision.Level ||
			x.Alternative != y.Alternative || x.AltSim != y.AltSim || x.Regret != y.Regret {
			t.Errorf("replay %d differs:\n%+v\n%+v", i, x, y)
		}
	}
}

func TestCounterfactualRequiresMachine(t *testing.T) {
	g := testGraph(t)
	sess := NewSession()
	defer sess.Close()
	if _, err := sess.Counterfactual(g, 0, Options{Algorithm: OneDFlat, Ranks: 4}); err == nil {
		t.Error("counterfactual without a Machine profile accepted")
	}
}

// TestTuneSpeedupFloor checks the tuner's core guarantee: the defaults
// are always in the candidate set, so the cached speedup is never below
// 1, and a second Tune returns the cached entry.
func TestTuneSpeedupFloor(t *testing.T) {
	g, err := NewRMATGraph(10, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	sources := g.Sources(4, 9)
	sess := NewSession()
	defer sess.Close()

	for _, algo := range []Algorithm{OneDFlat, TwoDFlat} {
		opt := Options{Algorithm: algo, Ranks: 4, Machine: "franklin"}
		tuned, err := sess.Tune(g, opt, sources)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if tuned.Speedup < 1 {
			t.Errorf("%v: tuned speedup %v < 1 (defaults are candidate 0)", algo, tuned.Speedup)
		}
		again, err := sess.Tune(g, opt, sources[:1])
		if err != nil {
			t.Fatal(err)
		}
		if again != tuned {
			t.Errorf("%v: second Tune recomputed: %+v vs cached %+v", algo, again, tuned)
		}
	}
}

// TestAutoTuneApplication checks that AutoTune searches pick up the
// cached settings, produce bit-identical distances, and never run
// slower than the untuned defaults, while explicit caller settings
// win over tuned ones.
func TestAutoTuneApplication(t *testing.T) {
	g, err := NewRMATGraph(10, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	sources := g.Sources(4, 9)
	opt := Options{Algorithm: TwoDFlat, Ranks: 4, Machine: "franklin"}

	sess := NewSession()
	defer sess.Close()
	tuned, err := sess.Tune(g, opt, sources)
	if err != nil {
		t.Fatal(err)
	}

	var defSim, tunedSim float64
	for _, src := range sources {
		base, err := sess.Search(g, src, opt)
		if err != nil {
			t.Fatal(err)
		}
		topt := opt
		topt.AutoTune = true
		res, err := sess.Search(g, src, topt)
		if err != nil {
			t.Fatal(err)
		}
		if v := diffDist(base.Dist, res.Dist); v >= 0 {
			t.Fatalf("tuned search changed the distance of vertex %d", v)
		}
		defSim += base.SimTime
		tunedSim += res.SimTime
	}
	if tunedSim > defSim*(1+1e-9) {
		t.Errorf("tuned searches slower than defaults: %v > %v (cached %+v)", tunedSim, defSim, tuned)
	}

	// An explicit caller grid beats the tuned one.
	eopt := opt
	eopt.AutoTune = true
	eopt.GridRows, eopt.GridCols = 1, 4
	applied := sess.applyTuned(g, eopt)
	if applied.GridRows != 1 || applied.GridCols != 4 {
		t.Errorf("explicit grid overridden: %dx%d", applied.GridRows, applied.GridCols)
	}

	// An untuned (layout, family) pair passes through unchanged.
	fresh := NewSession()
	defer fresh.Close()
	uopt := opt
	uopt.AutoTune = true
	if applied := fresh.applyTuned(g, uopt); applied != uopt {
		t.Errorf("untuned session mutated options: %+v", applied)
	}
}

// TestBatchAutoTune checks that BFSBatch also applies tuned settings
// and keeps distances bit-identical.
func TestBatchAutoTune(t *testing.T) {
	g, err := NewRMATGraph(10, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	sources := g.Sources(8, 9)
	opt := Options{Algorithm: OneDFlat, Ranks: 4, Machine: "franklin"}

	sess := NewSession()
	defer sess.Close()
	if _, err := sess.Tune(g, opt, sources[:2]); err != nil {
		t.Fatal(err)
	}
	base, err := sess.BFSBatch(g, sources, opt)
	if err != nil {
		t.Fatal(err)
	}
	topt := opt
	topt.AutoTune = true
	tuned, err := sess.BFSBatch(g, sources, topt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base.Results {
		if v := diffDist(base.Results[i].Dist, tuned.Results[i].Dist); v >= 0 {
			t.Fatalf("tuned batch changed source %d's distance at vertex %d", sources[i], v)
		}
	}
}
