package pbfs

import (
	"fmt"
	"math"
	"slices"
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
				if d.Frontier <= 0 {
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

// TestDecisionsGolden pins every decision a traced Auto search records on
// a fixed instance, inputs included: the level it governs, the reduced
// frontier and edge estimate, the unexplored volume and vertex total the
// rules compared against, the choice and the rejected alternatives.
func TestDecisionsGolden(t *testing.T) {
	g, err := NewRMATGraph(10, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	src := g.Sources(1, 9)[0]
	// Both layouts reduce the same global statistics, so they take the
	// same direction decisions; the 2D search adds its derived grid.
	dirs := []string{
		"direction L2 nf=1 mf=373 mu=10407 n=1024 prev=1 top-down [bottom-up]",
		"direction L3 nf=372 mf=9057 mu=1350 n=1024 prev=1 bottom-up [top-down]",
		"direction L4 nf=349 mf=1340 mu=10 n=1024 prev=372 bottom-up [top-down]",
		"direction L5 nf=9 mf=9 mu=1 n=1024 prev=349 top-down [bottom-up]",
	}
	golden := map[Algorithm][]string{
		OneDFlat: dirs,
		TwoDFlat: append(slices.Clone(dirs), "grid L0 nf=0 mf=0 mu=0 n=0 prev=0 2x2 [1x4 4x1]"),
	}
	sess := NewSession()
	defer sess.Close()
	for _, algo := range []Algorithm{OneDFlat, TwoDFlat} {
		res, err := sess.Search(g, src, Options{
			Algorithm: algo, Ranks: 4, Machine: "franklin", Direction: Auto, Trace: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, d := range res.Decisions {
			got = append(got, fmt.Sprintf("%s L%d nf=%d mf=%d mu=%d n=%d prev=%d %s %v",
				d.Kind, d.Level, d.Frontier, d.EdgeEst, d.Unexplored, d.Verts, d.PrevFrontier, d.Choice, d.Alternatives))
		}
		if !slices.Equal(got, golden[algo]) {
			t.Errorf("%v decisions:\n got %q\nwant %q", algo, got, golden[algo])
		}
	}

	// The crawl row: a long, thin search whose frontier hovers at a
	// steady size, the regime the direction rule must not misread. It
	// pins the choice of every direction decision (one letter per
	// decision, 'b' for bottom-up) and the entries the search scanned.
	// The growth guard keeps the whole search top-down, so it scans
	// exactly TopDownOnly's entries; the bare alpha/beta pair took 12
	// bottom-up levels here, alternating with top-down ones in the tail,
	// and scanned 18,357.
	crawl, err := NewWebCrawlGraph(1<<10, 5)
	if err != nil {
		t.Fatal(err)
	}
	const wantChoices = "tttttttttttttttttttttttttttttttttttttttttttttttttttttttttttttttttttttttttttttttttttt"
	const wantBU, wantScanned = 0, 10654
	res, err := sess.Search(crawl, crawl.Sources(1, 9)[0], Options{
		Algorithm: OneDFlat, Ranks: 4, Machine: "franklin", Direction: Auto, Trace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var choices []byte
	var bu int
	for _, d := range res.Decisions {
		c := byte('t')
		if d.Choice == "bottom-up" {
			c = 'b'
			bu++
		}
		choices = append(choices, c)
	}
	if scanned := res.ScannedTopDown + res.ScannedBottomUp; string(choices) != wantChoices || bu != wantBU || scanned != wantScanned {
		t.Errorf("crawl decisions:\n got %s (%d bottom-up, %d scanned)\nwant %s (%d bottom-up, %d scanned)",
			choices, bu, scanned, wantChoices, wantBU, wantScanned)
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
