package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sampleBaseline() *report {
	return &report{Scale: 16, Results: []result{
		{Config: "1d-flat", AllocsPerOp: 170, BatchSpeedup: 188},
		{Config: "2d-flat", AllocsPerOp: 425, BatchSpeedup: 54},
	}}
}

// TestCompareFailsOnSyntheticRegression is the gate's own gate: a
// candidate with regressed steady-state allocations or a collapsed
// batch speedup must be flagged.
func TestCompareFailsOnSyntheticRegression(t *testing.T) {
	base := sampleBaseline()
	tol := defaultTolerances()

	allocRegressed := &report{Results: []result{
		{Config: "1d-flat", AllocsPerOp: 400, BatchSpeedup: 188}, // 170 -> 400
		{Config: "2d-flat", AllocsPerOp: 425, BatchSpeedup: 54},
	}}
	bad := compare(base, allocRegressed, tol)
	if len(bad) != 1 || !strings.Contains(bad[0], "allocs/op") {
		t.Fatalf("alloc regression not flagged: %v", bad)
	}

	speedupCollapsed := &report{Results: []result{
		{Config: "1d-flat", AllocsPerOp: 170, BatchSpeedup: 188},
		{Config: "2d-flat", AllocsPerOp: 425, BatchSpeedup: 1.1}, // session reuse lost
	}}
	bad = compare(base, speedupCollapsed, tol)
	if len(bad) != 1 || !strings.Contains(bad[0], "batch_speedup") {
		t.Fatalf("speedup collapse not flagged: %v", bad)
	}
}

// TestCompareAcceptsNoise: jitter inside the tolerances (allocator
// noise, a moderately loaded CI host) must pass, as must an extra
// configuration the baseline does not know yet.
func TestCompareAcceptsNoise(t *testing.T) {
	base := sampleBaseline()
	cand := &report{Results: []result{
		{Config: "1d-flat", AllocsPerOp: 180, BatchSpeedup: 120}, // +6% allocs, -36% speedup
		{Config: "2d-flat", AllocsPerOp: 430, BatchSpeedup: 54},
		{Config: "2d-hybrid", AllocsPerOp: 9999, BatchSpeedup: 1}, // new config: ignored
	}}
	if bad := compare(base, cand, defaultTolerances()); len(bad) != 0 {
		t.Fatalf("in-tolerance candidate flagged: %v", bad)
	}
}

// TestCompareDisjointConfigs: a candidate measuring nothing the
// baseline tracks must fail rather than silently pass.
func TestCompareDisjointConfigs(t *testing.T) {
	cand := &report{Results: []result{{Config: "other", AllocsPerOp: 1, BatchSpeedup: 100}}}
	if bad := compare(sampleBaseline(), cand, defaultTolerances()); len(bad) != 2 {
		t.Fatalf("disjoint configuration sets: got %v, want one missing-config message per baseline row", bad)
	}
}

// TestCompareMissingConfig: losing (or renaming) a single baseline
// configuration is a regression even while the others still pass — a
// broken generator must not silently shrink the gate's coverage.
func TestCompareMissingConfig(t *testing.T) {
	cand := &report{Results: []result{
		{Config: "1d-flat", AllocsPerOp: 170, BatchSpeedup: 188},
		// 2d-flat vanished (e.g. renamed to "2d")
		{Config: "2d", AllocsPerOp: 425, BatchSpeedup: 54},
	}}
	bad := compare(sampleBaseline(), cand, defaultTolerances())
	if len(bad) != 1 || !strings.Contains(bad[0], "2d-flat") || !strings.Contains(bad[0], "missing") {
		t.Fatalf("missing configuration not flagged: %v", bad)
	}
}

// TestLoadReportRoundTrip checks the file loader against the committed
// schema, including its rejection of empty and malformed files.
func TestLoadReportRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	data, err := json.Marshal(sampleBaseline())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := loadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 2 || rep.Results[0].Config != "1d-flat" || rep.Results[0].AllocsPerOp != 170 {
		t.Fatalf("round trip mangled report: %+v", rep)
	}
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte(`{"results":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadReport(empty); err == nil {
		t.Error("empty report accepted")
	}
	if _, err := loadReport(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

// TestLoadCommittedBaseline guards the gate against schema drift: the
// repository's committed BENCH_bfs.json must stay loadable with
// comparable metrics.
func TestLoadCommittedBaseline(t *testing.T) {
	rep, err := loadReport(filepath.Join("..", "..", "BENCH_bfs.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Results {
		if r.Config == "" || r.AllocsPerOp <= 0 || r.BatchSpeedup <= 0 {
			t.Errorf("committed baseline has degenerate entry %+v", r)
		}
	}
}

// TestCompareHybridGate covers the PR 5 addition: a collapsing 1D
// hybrid single-core overhead trips its loose wall-clock gate.
func TestCompareHybridGate(t *testing.T) {
	tol := defaultTolerances()
	base := &report{Scale: 16, HybridOverhead1D: 1.1, Results: []result{
		{Config: "1d-flat", AllocsPerOp: 170, BatchSpeedup: 188},
	}}

	ok := &report{HybridOverhead1D: 1.2, Results: []result{
		{Config: "1d-flat", AllocsPerOp: 170, BatchSpeedup: 188},
	}}
	if bad := compare(base, ok, tol); len(bad) != 0 {
		t.Fatalf("healthy hybrid candidate flagged: %v", bad)
	}

	hybridBlowup := &report{HybridOverhead1D: 2.5, Results: []result{
		{Config: "1d-flat", AllocsPerOp: 170, BatchSpeedup: 188},
	}}
	bad := compare(base, hybridBlowup, tol)
	if len(bad) != 1 || !strings.Contains(bad[0], "hybrid_overhead_1d") {
		t.Fatalf("hybrid overhead blowup not flagged: %v", bad)
	}
}

// TestCompareBatchAmortizationGate covers the PR 6 addition: a 64-wide
// bit-parallel batch falling under the absolute simulated-clock
// amortization floor is a regression (the batched kernels silently
// stopped amortizing), but only when the baseline itself cleared the
// floor, and movement above the floor passes regardless of how far the
// baseline sat above it.
func TestCompareBatchAmortizationGate(t *testing.T) {
	tol := defaultTolerances()
	base := &report{Scale: 16, Results: []result{
		{Config: "1d-flat", AllocsPerOp: 170, BatchSpeedup: 188, SimAmortization: 8.1},
	}}

	noisy := &report{Results: []result{
		{Config: "1d-flat", AllocsPerOp: 170, BatchSpeedup: 188, SimAmortization: 2.4},
	}}
	if bad := compare(base, noisy, tol); len(bad) != 0 {
		t.Fatalf("above-floor amortization flagged: %v", bad)
	}

	collapsed := &report{Results: []result{
		{Config: "1d-flat", AllocsPerOp: 170, BatchSpeedup: 188, SimAmortization: 1.1},
	}}
	bad := compare(base, collapsed, tol)
	if len(bad) != 1 || !strings.Contains(bad[0], "msbfs_sim_amortization") {
		t.Fatalf("collapsed amortization not flagged: %v", bad)
	}

	// A degenerate baseline host (or a pre-PR-6 baseline file with the
	// field absent, unmarshaling to 0) never wedges CI.
	weakBase := &report{Scale: 16, Results: []result{
		{Config: "1d-flat", AllocsPerOp: 170, BatchSpeedup: 188, SimAmortization: 1.3},
	}}
	if bad := compare(weakBase, collapsed, tol); len(bad) != 0 {
		t.Fatalf("sub-floor baseline enforced the floor: %v", bad)
	}
}

// TestCompareServeGates covers the PR 7 additions: the serving layer's
// amortized speedup must stay above 1x (batched queries beating single
// searches) and its mean batch occupancy above 16, each enforced only
// when the committed baseline cleared the same floor — a pre-serving
// baseline (fields absent, unmarshaling to 0) never wedges CI.
func TestCompareServeGates(t *testing.T) {
	tol := defaultTolerances()
	base := &report{Scale: 16, Results: []result{
		{Config: "1d-flat", AllocsPerOp: 170, BatchSpeedup: 188,
			ServeSpeedup: 17.2, ServeOccupancy: 48.0},
	}}

	healthy := &report{Results: []result{
		{Config: "1d-flat", AllocsPerOp: 170, BatchSpeedup: 188,
			ServeSpeedup: 9.5, ServeOccupancy: 24.0}, // moved, still well above both floors
	}}
	if bad := compare(base, healthy, tol); len(bad) != 0 {
		t.Fatalf("above-floor serving candidate flagged: %v", bad)
	}

	noSpeedup := &report{Results: []result{
		{Config: "1d-flat", AllocsPerOp: 170, BatchSpeedup: 188,
			ServeSpeedup: 0.9, ServeOccupancy: 48.0}, // batching now slower than single searches
	}}
	bad := compare(base, noSpeedup, tol)
	if len(bad) != 1 || !strings.Contains(bad[0], "serve_speedup") {
		t.Fatalf("collapsed serve speedup not flagged: %v", bad)
	}

	emptyBatches := &report{Results: []result{
		{Config: "1d-flat", AllocsPerOp: 170, BatchSpeedup: 188,
			ServeSpeedup: 17.2, ServeOccupancy: 1.2}, // every query dispatched nearly alone
	}}
	bad = compare(base, emptyBatches, tol)
	if len(bad) != 1 || !strings.Contains(bad[0], "serve_batch_occupancy") {
		t.Fatalf("collapsed serve occupancy not flagged: %v", bad)
	}

	preServeBase := &report{Scale: 16, Results: []result{
		{Config: "1d-flat", AllocsPerOp: 170, BatchSpeedup: 188},
	}}
	broken := &report{Results: []result{
		{Config: "1d-flat", AllocsPerOp: 170, BatchSpeedup: 188,
			ServeSpeedup: 0.5, ServeOccupancy: 1},
	}}
	if bad := compare(preServeBase, broken, tol); len(bad) != 0 {
		t.Fatalf("pre-serving baseline enforced the serve floors: %v", bad)
	}
}

// TestCompareParallelEfficiencyGate covers the PR 8 additions: on a
// multicore candidate host, parallel_efficiency collapsing back to ~1x
// (a serialization point reintroduced into the collective engine) fails
// the gate; on a single-core host the ratio carries no signal and is
// never enforced; probe records vanishing once the baseline carries
// them is itself a regression.
func TestCompareParallelEfficiencyGate(t *testing.T) {
	tol := defaultTolerances()
	row := result{Config: "1d-flat", AllocsPerOp: 170, BatchSpeedup: 188}
	base := &report{Scale: 16, Host: &hostInfo{NumCPU: 8}, Results: []result{row},
		Parallel: &probe{Scale: 16, ParallelEfficiency: 3.4},
		Scale18:  &probe{Scale: 18, ParallelEfficiency: 3.9}}

	healthy := &report{Host: &hostInfo{NumCPU: 8}, Results: []result{row},
		Parallel: &probe{Scale: 16, ParallelEfficiency: 2.1},
		Scale18:  &probe{Scale: 18, ParallelEfficiency: 2.5}}
	if bad := compare(base, healthy, tol); len(bad) != 0 {
		t.Fatalf("healthy parallel candidate flagged: %v", bad)
	}

	serialized := &report{Host: &hostInfo{NumCPU: 8}, Results: []result{row},
		Parallel: &probe{Scale: 16, ParallelEfficiency: 1.01},
		Scale18:  &probe{Scale: 18, ParallelEfficiency: 2.5}}
	bad := compare(base, serialized, tol)
	if len(bad) != 1 || !strings.Contains(bad[0], "parallel_efficiency") {
		t.Fatalf("serialized engine not flagged: %v", bad)
	}

	// Single-core host: both sides of the ratio run the same schedule,
	// so ~1.0x is expected and must pass.
	singleCore := &report{Host: &hostInfo{NumCPU: 1}, Results: []result{row},
		Parallel: &probe{Scale: 16, ParallelEfficiency: 0.99},
		Scale18:  &probe{Scale: 18, ParallelEfficiency: 1.0}}
	if bad := compare(base, singleCore, tol); len(bad) != 0 {
		t.Fatalf("single-core candidate flagged: %v", bad)
	}

	vanished := &report{Host: &hostInfo{NumCPU: 8}, Results: []result{row}}
	bad = compare(base, vanished, tol)
	if len(bad) != 2 || !strings.Contains(bad[0], "parallel") || !strings.Contains(bad[1], "scale18") {
		t.Fatalf("vanished probe records not flagged: %v", bad)
	}

	// Pre-PR-8 baseline (no host, no probes): nothing new is enforced.
	oldBase := &report{Scale: 16, Results: []result{row}}
	if bad := compare(oldBase, vanished, tol); len(bad) != 0 {
		t.Fatalf("pre-probe baseline enforced probe gates: %v", bad)
	}
}

// TestCompareServeProbeGates covers the PR 9 additions: the v1 serving
// probe's Zipf cache hit rate must hold its floor and its deadline
// miss rate its ceiling, each enforced only when the baseline itself
// cleared the same bound; the probe record (and each registered graph's
// row) vanishing once the baseline carries it is a regression; a pre-v1
// baseline (field absent, unmarshaling to nil) never wedges CI.
func TestCompareServeProbeGates(t *testing.T) {
	tol := defaultTolerances()
	row := result{Config: "1d-flat", AllocsPerOp: 170, BatchSpeedup: 188}
	twoGraphs := []serveGraph{{Graph: "primary"}, {Graph: "secondary"}}
	base := &report{Scale: 16, Results: []result{row},
		Serve: &serveProbe{CacheHitRate: 0.8, DeadlineMissRate: 0.1, Graphs: twoGraphs}}

	healthy := &report{Results: []result{row},
		Serve: &serveProbe{CacheHitRate: 0.3, DeadlineMissRate: 0.4, Graphs: twoGraphs}}
	if bad := compare(base, healthy, tol); len(bad) != 0 {
		t.Fatalf("in-bounds serve probe flagged: %v", bad)
	}

	coldCache := &report{Results: []result{row},
		Serve: &serveProbe{CacheHitRate: 0.1, DeadlineMissRate: 0.1, Graphs: twoGraphs}}
	bad := compare(base, coldCache, tol)
	if len(bad) != 1 || !strings.Contains(bad[0], "serve_cache_hit_rate") {
		t.Fatalf("collapsed cache hit rate not flagged: %v", bad)
	}

	shedding := &report{Results: []result{row},
		Serve: &serveProbe{CacheHitRate: 0.8, DeadlineMissRate: 0.9, Graphs: twoGraphs}}
	bad = compare(base, shedding, tol)
	if len(bad) != 1 || !strings.Contains(bad[0], "serve_deadline_miss_rate") {
		t.Fatalf("blown deadline miss rate not flagged: %v", bad)
	}

	lostGraph := &report{Results: []result{row},
		Serve: &serveProbe{CacheHitRate: 0.8, DeadlineMissRate: 0.1,
			Graphs: []serveGraph{{Graph: "primary"}}}}
	bad = compare(base, lostGraph, tol)
	if len(bad) != 1 || !strings.Contains(bad[0], "secondary") {
		t.Fatalf("lost registry graph not flagged: %v", bad)
	}

	vanished := &report{Results: []result{row}}
	bad = compare(base, vanished, tol)
	if len(bad) != 1 || !strings.Contains(bad[0], "serving probe record missing") {
		t.Fatalf("vanished serve probe not flagged: %v", bad)
	}

	// Pre-v1 baseline, or one that never cleared the bounds itself:
	// nothing new is enforced.
	oldBase := &report{Scale: 16, Results: []result{row}}
	if bad := compare(oldBase, coldCache, tol); len(bad) != 0 {
		t.Fatalf("pre-v1 baseline enforced serve probe gates: %v", bad)
	}
	weakBase := &report{Scale: 16, Results: []result{row},
		Serve: &serveProbe{CacheHitRate: 0.2, DeadlineMissRate: 0.6, Graphs: twoGraphs}}
	if bad := compare(weakBase, shedding, tol); len(bad) != 0 {
		t.Fatalf("out-of-bounds baseline enforced serve probe gates: %v", bad)
	}
}

// TestCompareTunedSpeedupGate covers the PR 10 addition: tuned_speedup
// is >= 1 by construction (the tuner always scores the defaults and
// only displaces them on a strict simulated-time win), so a candidate
// carrying the field below the floor means applyTuned handed out
// settings the tuner never validated. Enforced whenever the candidate
// carries the field, so a pre-tuner baseline (field absent on its
// rows) does not suppress the check, while a
// candidate that stopped measuring (field 0) is not compared.
func TestCompareTunedSpeedupGate(t *testing.T) {
	tol := defaultTolerances()
	base := sampleBaseline() // pre-tuner baseline: no tuned_speedup fields

	healthy := &report{Results: []result{
		{Config: "1d-flat", AllocsPerOp: 170, BatchSpeedup: 188, TunedSpeedup: 1.0},
		{Config: "2d-flat", AllocsPerOp: 425, BatchSpeedup: 54, TunedSpeedup: 1.37},
	}}
	if bad := compare(base, healthy, tol); len(bad) != 0 {
		t.Fatalf("healthy tuned candidate flagged: %v", bad)
	}

	regressed := &report{Results: []result{
		{Config: "1d-flat", AllocsPerOp: 170, BatchSpeedup: 188, TunedSpeedup: 1.0},
		{Config: "2d-flat", AllocsPerOp: 425, BatchSpeedup: 54, TunedSpeedup: 0.91},
	}}
	bad := compare(base, regressed, tol)
	if len(bad) != 1 || !strings.Contains(bad[0], "tuned_speedup") || !strings.Contains(bad[0], "2d-flat") {
		t.Fatalf("sub-1x tuned_speedup not flagged: %v", bad)
	}

	// A candidate that stopped measuring tuning (field 0, e.g. an old
	// generator) is not compared — absence is handled by the committed-
	// baseline schema test, not this gate.
	unmeasured := &report{Results: []result{
		{Config: "1d-flat", AllocsPerOp: 170, BatchSpeedup: 188},
		{Config: "2d-flat", AllocsPerOp: 425, BatchSpeedup: 54},
	}}
	if bad := compare(base, unmeasured, tol); len(bad) != 0 {
		t.Fatalf("unmeasured tuned_speedup flagged: %v", bad)
	}
}

// TestWarnCrossHost: differing core counts between baseline and
// candidate warn without failing — the wall-clock columns are not
// directly comparable, but a laptop regenerating a CI-host baseline
// must not be told its tree regressed.
func TestWarnCrossHost(t *testing.T) {
	row := result{Config: "1d-flat", AllocsPerOp: 170, BatchSpeedup: 188}
	base := &report{Host: &hostInfo{NumCPU: 8}, Results: []result{row}}
	cand := &report{Host: &hostInfo{NumCPU: 2}, Results: []result{row}}
	warn := warnings(base, cand)
	if len(warn) != 1 || !strings.Contains(warn[0], "8 cpus") || !strings.Contains(warn[0], "2") {
		t.Fatalf("cross-host comparison not warned: %v", warn)
	}
	if bad := compare(base, cand, defaultTolerances()); len(bad) != 0 {
		t.Fatalf("cross-host warning escalated to failure: %v", bad)
	}
	if warn := warnings(base, base); len(warn) != 0 {
		t.Fatalf("same-host comparison warned: %v", warn)
	}
	// Hostless reports (pre-PR-8 baselines) never warn.
	if warn := warnings(&report{Results: []result{row}}, cand); len(warn) != 0 {
		t.Fatalf("hostless baseline warned: %v", warn)
	}
}
