package graph500

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/rmat"
	"repro/internal/serial"
)

func buildRef(t *testing.T, scale, ef int, seed uint64) *graph.CSR {
	t.Helper()
	el, err := rmat.Graph500(scale, ef, seed).GenerateUndirected()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := graph.BuildCSR(el, true)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

func TestSelectSources(t *testing.T) {
	ref := buildRef(t, 11, 16, 0x51)
	srcs := SelectSources(ref, 16, 7)
	if len(srcs) != 16 {
		t.Fatalf("got %d sources", len(srcs))
	}
	comp, count := graph.ConnectedComponents(ref)
	id, _ := graph.LargestComponent(comp, count)
	seen := map[int64]bool{}
	for _, s := range srcs {
		if comp[s] != id {
			t.Errorf("source %d outside the largest component", s)
		}
		if ref.Degree(s) == 0 {
			t.Errorf("source %d has no neighbors", s)
		}
		if seen[s] {
			t.Errorf("duplicate source %d", s)
		}
		seen[s] = true
	}
	// Deterministic in the seed.
	again := SelectSources(ref, 16, 7)
	for i := range srcs {
		if srcs[i] != again[i] {
			t.Fatal("source selection not deterministic")
		}
	}
}

func TestTEPS(t *testing.T) {
	if got := TEPS(1000, 0.5); got != 2000 {
		t.Errorf("TEPS = %v", got)
	}
	if got := TEPS(1000, 0); got != 0 {
		t.Errorf("TEPS with zero time = %v", got)
	}
}

func TestSummarize(t *testing.T) {
	runs := []Run{
		{Time: 1, CommTime: 0.5, Edges: 1000, Levels: 5},
		{Time: 2, CommTime: 1.0, Edges: 1000, Levels: 7},
		{Time: 4, CommTime: 2.0, Edges: 1000, Levels: 6},
	}
	st := Summarize(runs)
	if st.NumRuns != 3 {
		t.Errorf("NumRuns = %d", st.NumRuns)
	}
	if math.Abs(st.MeanTime-7.0/3) > 1e-12 {
		t.Errorf("MeanTime = %v", st.MeanTime)
	}
	if st.MinTime != 1 || st.MaxTime != 4 || st.MedianTime != 2 {
		t.Errorf("min/max/median = %v/%v/%v", st.MinTime, st.MaxTime, st.MedianTime)
	}
	// Harmonic mean of 1000, 500, 250 TEPS = 3/(1/1000+1/500+1/250).
	want := 3.0 / (1.0/1000 + 1.0/500 + 1.0/250)
	if math.Abs(st.HarmonicMeanTEPS-want) > 1e-9 {
		t.Errorf("HarmonicMeanTEPS = %v, want %v", st.HarmonicMeanTEPS, want)
	}
	if st.MinTEPS != 250 || st.MaxTEPS != 1000 {
		t.Errorf("min/max TEPS = %v/%v", st.MinTEPS, st.MaxTEPS)
	}
	if math.Abs(st.MeanLevels-6) > 1e-12 {
		t.Errorf("MeanLevels = %v", st.MeanLevels)
	}
	if math.Abs(st.MeanCommTime-3.5/3) > 1e-12 {
		t.Errorf("MeanCommTime = %v", st.MeanCommTime)
	}
}

// TestSummarizeHarmonicMeanInRange: with every rate positive, the
// harmonic mean lies in [MinTEPS, MaxTEPS], including runs of equal rates
// where n/Σ(1/x) rounds one ulp above or below the common rate.
func TestSummarizeHarmonicMeanInRange(t *testing.T) {
	const secs = 5.6571200099436076e-05
	for _, c := range []struct {
		runs  int
		edges int64
	}{
		{5, 5443}, // rounds above
		{2, 13},   // rounds above
		{2, 47},   // rounds below
	} {
		runs := make([]Run, c.runs)
		for i := range runs {
			runs[i] = Run{Time: secs, Edges: c.edges}
		}
		st := Summarize(runs)
		if st.HarmonicMeanTEPS < st.MinTEPS || st.HarmonicMeanTEPS > st.MaxTEPS {
			t.Errorf("%d runs of %d edges: HarmonicMeanTEPS %v outside [%v, %v]",
				c.runs, c.edges, st.HarmonicMeanTEPS, st.MinTEPS, st.MaxTEPS)
		}
	}
}

// TestSummarizeBatchSharedScanRule pins the MS-BFS accounting rule: the
// machine rate counts each shared edge scan once, so adding a duplicate
// source to a batch raises the harmonic mean (another search is credited
// the same edges at the same amortized time) but leaves MachineTEPS
// untouched — the unique-edge set and the batch time do not move.
func TestSummarizeBatchSharedScanRule(t *testing.T) {
	const (
		batchTime   = 2.0
		uniqueEdges = 1000
	)
	// Three searches over the same component at the amortized share of
	// the batch's clock.
	runs := []Run{
		{Source: 3, Time: batchTime / 3, Edges: 900, Levels: 5},
		{Source: 9, Time: batchTime / 3, Edges: 1000, Levels: 6},
		{Source: 4, Time: batchTime / 3, Edges: 950, Levels: 5},
	}
	st := SummarizeBatch(runs, uniqueEdges, batchTime)
	if st.MachineTEPS != uniqueEdges/batchTime {
		t.Errorf("MachineTEPS = %v, want %v", st.MachineTEPS, uniqueEdges/batchTime)
	}
	if st.BatchTime != batchTime || st.UniqueEdges != uniqueEdges {
		t.Errorf("batch aggregates %v/%d", st.BatchTime, st.UniqueEdges)
	}
	if st.NumRuns != 3 || st.HarmonicMeanTEPS <= 0 {
		t.Errorf("embedded stats missing: %+v", st.Stats)
	}

	// Duplicate source 3: a fourth search rides the same traversal. The
	// unique-edge set is unchanged; with one more search sharing the
	// same batch the amortized per-search time drops to batchTime/4.
	dup := make([]Run, 0, 4)
	for _, r := range runs {
		r.Time = batchTime / 4
		dup = append(dup, r)
	}
	r := runs[0]
	r.Time = batchTime / 4
	dup = append(dup, r)
	st2 := SummarizeBatch(dup, uniqueEdges, batchTime)
	if st2.MachineTEPS != st.MachineTEPS {
		t.Errorf("duplicate source moved MachineTEPS: %v -> %v (shared scans double-counted)",
			st.MachineTEPS, st2.MachineTEPS)
	}
	if st2.HarmonicMeanTEPS <= st.HarmonicMeanTEPS {
		t.Errorf("per-search harmonic mean should rise with batch width: %v -> %v",
			st.HarmonicMeanTEPS, st2.HarmonicMeanTEPS)
	}
}

func TestSummarizeEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Summarize(nil) did not panic")
		}
	}()
	Summarize(nil)
}

func TestValidateOutput(t *testing.T) {
	ref := buildRef(t, 10, 8, 0x52)
	srcs := SelectSources(ref, 1, 3)
	res := serial.BFS(ref, srcs[0])
	if err := ValidateOutput(ref, srcs[0], res.Dist, res.Parent); err != nil {
		t.Errorf("valid output rejected: %v", err)
	}
	res.Dist[srcs[0]] = 99
	if err := ValidateOutput(ref, srcs[0], res.Dist, res.Parent); err == nil {
		t.Error("corrupted output accepted")
	}
}

// TestValidateOutputErrorBranches covers each Graph 500 validation rule
// through the official entry point, on a path graph with one isolated
// vertex so every corruption class is constructible: bad parent root,
// distance gaps above one, and unreachable-but-parented vertices.
func TestValidateOutputErrorBranches(t *testing.T) {
	// 0-1-2-3 path; vertex 4 isolated.
	el := (&graph.EdgeList{NumVerts: 5, Edges: []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3},
	}}).Symmetrize()
	ref, err := graph.BuildCSR(el, true)
	if err != nil {
		t.Fatal(err)
	}
	base := serial.BFS(ref, 0)
	fresh := func() (dist, parent []int64) {
		return append([]int64(nil), base.Dist...), append([]int64(nil), base.Parent...)
	}

	if err := ValidateOutput(ref, 0, base.Dist, base.Parent); err != nil {
		t.Fatalf("valid output rejected: %v", err)
	}

	// Rule 4: the root must be its own parent at distance zero.
	dist, parent := fresh()
	parent[0] = 1
	if err := ValidateOutput(ref, 0, dist, parent); err == nil {
		t.Error("bad parent root accepted")
	}
	dist, parent = fresh()
	dist[0] = 1
	if err := ValidateOutput(ref, 0, dist, parent); err == nil {
		t.Error("nonzero source distance accepted")
	}

	// Rule 2/3: a tree edge (and graph edge) may span at most one level.
	dist, parent = fresh()
	dist[3] = dist[3] + 1 // gap of 2 across edge (2,3)
	if err := ValidateOutput(ref, 0, dist, parent); err == nil {
		t.Error("distance gap > 1 accepted")
	}

	// Rule 1: the claimed parent must be adjacent.
	dist, parent = fresh()
	parent[3] = 0
	dist[3] = 1
	if err := ValidateOutput(ref, 0, dist, parent); err == nil {
		t.Error("non-edge parent accepted")
	}

	// Rule 4: an unreachable vertex must not carry a parent (and the
	// other way around).
	dist, parent = fresh()
	parent[4] = 0
	if err := ValidateOutput(ref, 0, dist, parent); err == nil {
		t.Error("unreachable-but-parented vertex accepted")
	}
	dist, parent = fresh()
	dist[4] = 1
	if err := ValidateOutput(ref, 0, dist, parent); err == nil {
		t.Error("reachable-but-parentless vertex accepted")
	}

	// Rule 5: distances must match the independent reference, even when
	// internally consistent. A wrong-but-consistent labeling: claim the
	// whole path unreachable except the source.
	dist, parent = fresh()
	for v := 1; v < 4; v++ {
		dist[v], parent[v] = serial.Unreached, serial.Unreached
	}
	if err := ValidateOutput(ref, 0, dist, parent); err == nil {
		t.Error("reachable set mismatch accepted")
	}
}

func TestSummarizeByClass(t *testing.T) {
	classes := map[string][]Run{
		"interactive": {
			{Source: 1, Time: 0.5, Edges: 1000, Levels: 5},
			{Source: 2, Time: 0.25, Edges: 1000, Levels: 7},
		},
		"batch": {
			{Source: 3, Time: 10, Edges: 1000, Levels: 4},
		},
		"unseen": nil,
	}
	got := SummarizeByClass(classes)
	if len(got) != 2 {
		t.Fatalf("got %d class summaries, want 2 (empty class dropped): %v", len(got), got)
	}
	if _, ok := got["unseen"]; ok {
		t.Fatal("empty class should be dropped, not summarized")
	}
	// Each group is the independent Summarize of its runs: a 10-second
	// batch-class search must not perturb the interactive statistics.
	want := Summarize(classes["interactive"])
	if g := got["interactive"]; g != want {
		t.Errorf("interactive stats %+v != independent Summarize %+v", g, want)
	}
	if g := got["batch"]; g.NumRuns != 1 || g.HarmonicMeanTEPS != 100 {
		t.Errorf("batch stats wrong: %+v", g)
	}
}

func TestPercentile(t *testing.T) {
	vals := []float64{30, 10, 50, 20, 40} // unsorted on purpose
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 10}, {1, 10}, {20, 10}, {50, 30}, {90, 50}, {100, 50},
	}
	for _, c := range cases {
		if got := Percentile(vals, c.p); got != c.want {
			t.Errorf("Percentile(p=%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile(empty) = %g, want 0", got)
	}
	if vals[0] != 30 {
		t.Error("Percentile must not sort its argument in place")
	}
}
