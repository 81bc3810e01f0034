package perfmodel

import (
	"math"
	"testing"

	"repro/internal/netmodel"
)

// The assertions below pin the paper's qualitative findings — who wins,
// where crossovers fall, how phases decompose — against the calibrated
// model. EXPERIMENTS.md records the quantitative paper-vs-model numbers.

func predictAll(m *netmodel.Machine, cores int, wl Workload) map[Algo]Breakdown {
	out := map[Algo]Breakdown{}
	for _, a := range []Algo{OneDFlat, OneDHybrid, TwoDFlat, TwoDHybrid} {
		out[a] = Predict(Config{Machine: m, Cores: cores, Algo: a}, wl)
	}
	return out
}

func TestFranklinFlat1DBeats2D(t *testing.T) {
	// Figure 5: "the flat 1D algorithms are about 1.5-1.8x faster than
	// the 2D algorithms on this architecture."
	f := netmodel.Franklin()
	wl := RMATWorkload(29, 16)
	for _, p := range []int{512, 1024, 2048, 4096} {
		b := predictAll(f, p, wl)
		ratio := b[OneDFlat].GTEPS / b[TwoDFlat].GTEPS
		if ratio < 1.3 || ratio > 2.6 {
			t.Errorf("p=%d: flat1D/flat2D = %.2f, want ~1.5-1.8 (band [1.3,2.6])", p, ratio)
		}
	}
}

func TestFranklinHybrid1DCrossover(t *testing.T) {
	// Figure 5: the 1D hybrid is slower than flat 1D at small
	// concurrencies but overtakes it at large ones.
	f := netmodel.Franklin()
	wl := RMATWorkload(29, 16)
	small := predictAll(f, 512, wl)
	large := predictAll(f, 4096, wl)
	if small[OneDHybrid].GTEPS >= small[OneDFlat].GTEPS {
		t.Errorf("at 512 cores hybrid (%.2f) should trail flat (%.2f)",
			small[OneDHybrid].GTEPS, small[OneDFlat].GTEPS)
	}
	if large[OneDHybrid].GTEPS <= large[OneDFlat].GTEPS {
		t.Errorf("at 4096 cores hybrid (%.2f) should beat flat (%.2f)",
			large[OneDHybrid].GTEPS, large[OneDFlat].GTEPS)
	}
}

func TestCommTimes2DBelow1D(t *testing.T) {
	// Figure 6: "2D algorithms consistently spend less time in
	// communication, compared to their relative 1D algorithms."
	f := netmodel.Franklin()
	wl := RMATWorkload(29, 16)
	for _, p := range []int{512, 1024, 2048, 4096} {
		b := predictAll(f, p, wl)
		if b[TwoDFlat].Comm >= b[OneDFlat].Comm {
			t.Errorf("p=%d: 2D flat comm %.2fs >= 1D flat comm %.2fs", p, b[TwoDFlat].Comm, b[OneDFlat].Comm)
		}
		if b[TwoDHybrid].Comm >= b[OneDHybrid].Comm {
			t.Errorf("p=%d: 2D hybrid comm %.2fs >= 1D hybrid comm %.2fs", p, b[TwoDHybrid].Comm, b[OneDHybrid].Comm)
		}
	}
}

func TestHopper2DBeats1D(t *testing.T) {
	// Figure 7: "By contrast to Franklin results, the 2D algorithms
	// score higher than their 1D counterparts" (flat vs flat, and the 2D
	// hybrid leads overall at scale).
	h := netmodel.Hopper()
	wl := RMATWorkload(32, 16)
	for _, p := range []int{10008, 20000, 40000} {
		b := predictAll(h, p, wl)
		if b[TwoDFlat].GTEPS <= b[OneDFlat].GTEPS {
			t.Errorf("p=%d: 2D flat (%.2f) should beat 1D flat (%.2f)", p, b[TwoDFlat].GTEPS, b[OneDFlat].GTEPS)
		}
	}
	b := predictAll(h, 40000, wl)
	best := b[TwoDHybrid].GTEPS
	for a, v := range b {
		if a != TwoDHybrid && v.GTEPS >= best {
			t.Errorf("at 40000 cores %v (%.2f) should not beat 2D hybrid (%.2f)", a, v.GTEPS, best)
		}
	}
	// Headline: ~17.8 GTEPS at 40,000 cores; accept a generous band.
	if best < 12 || best > 30 {
		t.Errorf("2D hybrid at 40k cores = %.1f GTEPS, want near the paper's 17.8", best)
	}
}

func TestHopper1DFlatCommDominates(t *testing.T) {
	// Section 6: at 20k cores the flat 1D run spends >90% of its time in
	// communication, while the 2D hybrid stays below ~50-80%.
	h := netmodel.Hopper()
	wl := RMATWorkload(32, 16)
	b := predictAll(h, 20000, wl)
	if frac := b[OneDFlat].Comm / b[OneDFlat].Total; frac < 0.9 {
		t.Errorf("1D flat comm fraction %.2f, want > 0.9", frac)
	}
	if frac := b[TwoDHybrid].Comm / b[TwoDHybrid].Total; frac > 0.85 {
		t.Errorf("2D hybrid comm fraction %.2f, want well below 1D flat's", frac)
	}
}

func TestCommReductionFactor(t *testing.T) {
	// Abstract: "Our novel hybrid two-dimensional algorithm reduces
	// communication times by up to a factor of 3.5, relative to a common
	// vertex based approach."
	h := netmodel.Hopper()
	wl := RMATWorkload(32, 16)
	var best float64
	for _, p := range []int{5040, 10008, 20000, 40000} {
		b := predictAll(h, p, wl)
		if r := b[OneDFlat].Comm / b[TwoDHybrid].Comm; r > best {
			best = r
		}
	}
	if best < 2.5 || best > 6 {
		t.Errorf("max comm reduction = %.2fx, want ~3.5 (band [2.5,6])", best)
	}
}

func TestTable1Shapes(t *testing.T) {
	// Table 1: for fixed edge count, (a) BFS time grows as the graph gets
	// sparser; (b) the Allgatherv share grows with sparsity and exceeds
	// the Alltoallv share for the sparser graphs; (c) the Alltoallv share
	// stays roughly flat (6-12%).
	f := netmodel.Franklin()
	for _, cores := range []int{1024, 2025, 4096} {
		var prevTime, prevAG float64
		for _, sc := range []struct{ scale, ef int }{{27, 64}, {29, 16}, {31, 4}} {
			b := Predict(Config{Machine: f, Cores: cores, Algo: TwoDFlat}, RMATWorkload(sc.scale, sc.ef))
			ag := b.Phase["expand"] / b.Total
			a2a := b.Phase["fold"] / b.Total
			if b.Total <= prevTime {
				t.Errorf("cores=%d scale=%d: time %.2f not above denser config %.2f", cores, sc.scale, b.Total, prevTime)
			}
			if ag <= prevAG {
				t.Errorf("cores=%d scale=%d: AG share %.1f%% not above denser config", cores, sc.scale, 100*ag)
			}
			if sc.ef <= 16 && ag <= a2a {
				t.Errorf("cores=%d scale=%d: AG share %.1f%% not above A2A %.1f%%", cores, sc.scale, 100*ag, 100*a2a)
			}
			if a2a < 0.02 || a2a > 0.2 {
				t.Errorf("cores=%d scale=%d: A2A share %.1f%% outside flat band", cores, sc.scale, 100*a2a)
			}
			prevTime, prevAG = b.Total, ag
		}
	}
}

func TestDensitySensitivity(t *testing.T) {
	// Figure 10: with edges per processor fixed, the flat 2D algorithm
	// overtakes flat 1D only on the densest graphs (degree 64), and the
	// 1D margin grows as graphs get sparser.
	f := netmodel.Franklin()
	p := 4096
	ratio := func(scale, ef int) float64 {
		wl := RMATWorkload(scale, ef)
		b := predictAll(f, p, wl)
		return b[OneDFlat].GTEPS / b[TwoDFlat].GTEPS
	}
	sparse := ratio(31, 4)
	mid := ratio(29, 16)
	dense := ratio(27, 64)
	if !(sparse > mid && mid > dense) {
		t.Errorf("1D/2D ratio should grow with sparsity: got %.2f (deg4) %.2f (deg16) %.2f (deg64)", sparse, mid, dense)
	}
	if dense > 1.35 {
		t.Errorf("at degree 64 the 2D algorithm should be competitive: 1D/2D = %.2f", dense)
	}
}

func TestUKUnionShapes(t *testing.T) {
	// Figure 11: on the high-diameter uk-union crawl, communication is a
	// small fraction of the 2D flat execution, the hybrid is slower than
	// flat (intra-node overheads, no comm to save), and scaling 500->4000
	// cores gives ~4x.
	h := netmodel.Hopper()
	wl := UKUnionWorkload()
	flat500 := Predict(Config{Machine: h, Cores: 500, Algo: TwoDFlat}, wl)
	flat4000 := Predict(Config{Machine: h, Cores: 4000, Algo: TwoDFlat}, wl)
	hyb4000 := Predict(Config{Machine: h, Cores: 4000, Algo: TwoDHybrid}, wl)
	// The paper reports communication as a very small fraction; the model
	// keeps it a minority share but over-estimates it relative to the
	// measured runs (recorded as a deviation in EXPERIMENTS.md).
	if frac := flat4000.Comm / flat4000.Total; frac > 0.65 {
		t.Errorf("uk-union comm fraction at 4000 cores = %.2f, want a minority share", frac)
	}
	speedup := flat500.Total / flat4000.Total
	if speedup < 2.5 || speedup > 7 {
		t.Errorf("500->4000 core speedup = %.2fx, want ~4x", speedup)
	}
	if hyb4000.Total <= flat4000.Total {
		t.Errorf("hybrid (%.2fs) should be slower than flat (%.2fs) on uk-union", hyb4000.Total, flat4000.Total)
	}
}

func TestComparatorGaps(t *testing.T) {
	// Section 6: flat 1D is 2.72-4.13x faster than the reference code on
	// Franklin at 512-2048 cores; Table 2: flat 2D is ~10-16x faster
	// than PBGL on Carver.
	f := netmodel.Franklin()
	wl := RMATWorkload(29, 16)
	for _, p := range []int{512, 1024, 2048} {
		tuned := Predict(Config{Machine: f, Cores: p, Algo: OneDFlat}, wl)
		ref := Predict(Config{Machine: f, Cores: p, Algo: Reference}, wl)
		if r := ref.Total / tuned.Total; r < 2 || r > 6 {
			t.Errorf("p=%d: reference/tuned = %.2f, want ~2.7-4.1", p, r)
		}
	}
	c := netmodel.Carver()
	wl22 := RMATWorkload(22, 16)
	for _, p := range []int{128, 256} {
		tuned := Predict(Config{Machine: c, Cores: p, Algo: TwoDFlat}, wl22)
		pbgl := Predict(Config{Machine: c, Cores: p, Algo: PBGL}, wl22)
		if r := pbgl.Total / tuned.Total; r < 5 || r > 30 {
			t.Errorf("p=%d: PBGL/tuned = %.2f, want ~10-16", p, r)
		}
	}
}

func TestWeakScalingFlat(t *testing.T) {
	// Figure 9: weak scaling with ~17M edges per core; the ideal curve is
	// flat. Accept mild growth (communication degrades slowly).
	f := netmodel.Franklin()
	prev := 0.0
	for i, p := range []int{512, 1024, 2048, 4096} {
		scale := 24 + i // keeps M/p constant at ~2^24 edges per 512 cores
		wl := RMATWorkload(scale, 16)
		b := Predict(Config{Machine: f, Cores: p, Algo: OneDFlat}, wl)
		if prev > 0 && (b.Total > prev*2 || b.Total < prev/2) {
			t.Errorf("weak scaling step to p=%d: time %.2fs vs previous %.2fs (not near-flat)", p, b.Total, prev)
		}
		prev = b.Total
	}
}

func TestAlgoStrings(t *testing.T) {
	names := map[Algo]string{
		OneDFlat: "1D Flat MPI", OneDHybrid: "1D Hybrid",
		TwoDFlat: "2D Flat MPI", TwoDHybrid: "2D Hybrid",
		Reference: "Graph500 reference", PBGL: "PBGL",
	}
	for a, want := range names {
		if a.String() != want {
			t.Errorf("%d.String() = %q", a, a.String())
		}
	}
}

func TestPredictPanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil machine accepted")
		}
	}()
	Predict(Config{Machine: nil, Cores: 64, Algo: OneDFlat}, RMATWorkload(20, 16))
}

// TestWorkloadValidate: workloads whose edge or word counts would wrap
// the model's int64 arithmetic are refused, and the largest accepted
// one prices to a finite positive time under every variant.
func TestWorkloadValidate(t *testing.T) {
	for _, c := range []struct {
		name string
		wl   Workload
		ok   bool
	}{
		{"scale 20", RMATWorkload(20, 16), true},
		{"uk-union", UKUnionWorkload(), true},
		{"at the edge limit", Workload{N: 1 << 58, M: maxModelEdges, Levels: 8, HeavyLevels: 3}, true},
		{"no edges", Workload{N: 1 << 20, M: 0, Levels: 8, HeavyLevels: 3}, false},
		{"no heavy levels", Workload{N: 1 << 20, M: 1 << 24, Levels: 8}, false},
		// 2·M wraps to a negative slot count: a NaN 2D and a negative 1D total.
		{"2^62 edges", RMATWorkload(62, 1), false},
		{"one edge past the limit", Workload{N: 1 << 58, M: maxModelEdges + 1, Levels: 8, HeavyLevels: 3}, false},
		{"bitmap words wrap", Workload{N: math.MaxInt64, M: 1 << 40, Levels: 8, HeavyLevels: 3}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			err := c.wl.Validate()
			if (err == nil) != c.ok {
				t.Fatalf("Validate() = %v, want ok=%v", err, c.ok)
			}
			if !c.ok {
				return
			}
			for _, a := range []Algo{OneDFlat, OneDHybrid, TwoDFlat, TwoDHybrid, Reference, PBGL} {
				for _, dirOpt := range []bool{false, true} {
					b := Predict(Config{Machine: netmodel.Hopper(), Cores: 1024, Algo: a, DirOpt: dirOpt}, c.wl)
					if !(b.Total > 0) || math.IsInf(b.Total, 0) {
						t.Errorf("%v dirOpt=%v: total %v, want finite and positive", a, dirOpt, b.Total)
					}
				}
			}
		})
	}
}
