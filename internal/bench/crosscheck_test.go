package bench

import (
	"testing"

	pbfs "repro"
	"repro/internal/perfmodel"
)

// TestEmulationReproducesCommOrdering cross-checks the two methodologies:
// the Figure 6 ordering (2D communicates less than 1D; hybrid less than
// flat) must hold in the emulated runs, not just the closed-form model.
func TestEmulationReproducesCommOrdering(t *testing.T) {
	g, err := pbfs.NewRMATGraph(13, 16, 0xcc)
	if err != nil {
		t.Fatal(err)
	}
	comm := map[perfmodel.Algo]float64{}
	for _, algo := range fourAlgos {
		res, err := runEmulated(g, algo, 16, "franklin", 3, 0xcc)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		comm[algo] = res.MeanCommTime
	}
	if comm[perfmodel.TwoDFlat] >= comm[perfmodel.OneDFlat] {
		t.Errorf("emulated 2D flat comm %.5f not below 1D flat %.5f",
			comm[perfmodel.TwoDFlat], comm[perfmodel.OneDFlat])
	}
	if comm[perfmodel.TwoDHybrid] >= comm[perfmodel.OneDHybrid] {
		t.Errorf("emulated 2D hybrid comm %.5f not below 1D hybrid %.5f",
			comm[perfmodel.TwoDHybrid], comm[perfmodel.OneDHybrid])
	}
	if comm[perfmodel.OneDHybrid] >= comm[perfmodel.OneDFlat] {
		t.Errorf("emulated 1D hybrid comm %.5f not below 1D flat %.5f",
			comm[perfmodel.OneDHybrid], comm[perfmodel.OneDFlat])
	}
}

// TestEmulationExpandFoldSplit cross-checks Table 1's structure in the
// emulated 2D runs: both phases present, and the expand share growing as
// the graph gets sparser at fixed edge count.
func TestEmulationExpandFoldSplit(t *testing.T) {
	var prevExpandShare float64
	for _, sc := range []struct{ scale, ef int }{{12, 32}, {14, 8}, {16, 2}} {
		g, err := pbfs.NewRMATGraph(sc.scale, sc.ef, 0xcd)
		if err != nil {
			t.Fatal(err)
		}
		res, err := runEmulated(g, perfmodel.TwoDFlat, 16, "franklin", 2, 0xce)
		if err != nil {
			t.Fatal(err)
		}
		expand, fold := res.phase["expand"], res.phase["fold"]
		if expand <= 0 || fold <= 0 {
			t.Fatalf("scale %d: missing phase times (expand %v, fold %v)", sc.scale, expand, fold)
		}
		share := expand / res.MeanTime
		if share <= prevExpandShare {
			t.Errorf("scale %d: expand share %.3f not above denser config's %.3f", sc.scale, share, prevExpandShare)
		}
		prevExpandShare = share
	}
}
