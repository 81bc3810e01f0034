// Command benchcmp is the bench-regression gate: it compares a freshly
// generated BENCH trajectory file (bfsbench -bench-out) against the
// committed baseline and exits non-zero if a steady-state metric
// regressed beyond tolerance.
//
// Two metrics gate merges:
//
//   - allocs/op of a warm-session search must not grow: the PR-1/PR-3
//     arena work made steady-state levels allocation-free, and an
//     allocation creeping back into the level loop is invisible to
//     correctness tests.
//   - batch_speedup (one open session for a 16-search batch vs 16
//     one-shot rebuilds) must not collapse: it is the observable proof
//     that a configuration pays exactly one distribution.
//
// allocs/op is nearly deterministic, so its tolerance is tight;
// batch_speedup is wall-clock and shares the host with other CI jobs,
// so its tolerance only catches collapses (losing session reuse drops
// it from ~50-190x to ~1x).
//
// On multicore hosts a third family gates: parallel_efficiency (the
// GOMAXPROCS=1 / GOMAXPROCS=all level-loop ratio, at the report scale
// and at scale 18) must clear an absolute floor, so a serialization
// point reintroduced into the collective engine fails CI instead of
// landing silently. Host metadata (cpu count, Go version) is compared
// informationally: differing core counts warn, never fail, since
// wall-clock columns are only comparable within a host class.
//
// Usage:
//
//	benchcmp -baseline BENCH_bfs.json -candidate /tmp/bench.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// result mirrors the BENCH_bfs.json fields the gate reads (see
// internal/bench.WallResult for the full schema).
type result struct {
	Config       string  `json:"config"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
	BatchSpeedup float64 `json:"batch_speedup"`
	// Multi-source batch record: the ratio of 64 sequential
	// warm-session searches to one 64-wide bit-parallel batch, on the
	// simulated clock (deterministic, so it can be gated tightly where
	// the wall-clock ratio breathes with host load). Losing the
	// bit-parallel path (falling back to per-source traversal) drops it
	// to ~1x, so the gate holds an absolute floor rather than tracking
	// the baseline's exact ratio.
	SimAmortization float64 `json:"msbfs_sim_amortization"`
	// Serving-layer record: the queue → former pipeline batching a
	// deterministic bursty query stream through the same warm session.
	// serve_speedup is single-search sim time / amortized per-query sim
	// time; serve_batch_occupancy is the mean batch width the stream
	// achieved. Both are simulated-clock metrics, so they gate tightly.
	ServeSpeedup   float64 `json:"serve_speedup"`
	ServeOccupancy float64 `json:"serve_batch_occupancy"`
	// Auto-tuner record: simulated time under the default policy
	// parameters divided by simulated time under the tuned settings the
	// counterfactual replays picked. The tuner always scores the
	// defaults as candidate 0 and only displaces them on a strict win,
	// so the ratio is >= 1 by construction; a value under 1 means the
	// tuner started applying settings it never validated.
	TunedSpeedup float64 `json:"tuned_speedup"`
}

// hostInfo mirrors the host stamp bfsbench records: wall-clock columns
// are only comparable within a host class, so the gate warns (without
// failing) when baseline and candidate core counts differ.
type hostInfo struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// probe mirrors the parallel-efficiency records (report scale and
// scale 18): the GOMAXPROCS=1 / GOMAXPROCS=all level-loop ratio of the
// collective engine. On a multicore host it must clear a floor — a
// reintroduced serialization point (a merge under the group lock, a
// condvar thundering herd) drags it back to ~1 while every correctness
// test stays green.
type probe struct {
	Scale              int     `json:"scale"`
	ParallelEfficiency float64 `json:"parallel_efficiency"`
}

// serveGraph mirrors one registered graph's row in the v1 serving
// probe: its batch occupancy is compared informationally per graph.
type serveGraph struct {
	Graph         string  `json:"graph"`
	MeanOccupancy float64 `json:"mean_occupancy"`
}

// serveProbe mirrors the v1 multi-graph serving record (PR 9): a
// deterministic Zipf query stream over two registered graphs through
// the full admission path. Both rates derive from the simulated clock
// and seeded arrivals, so they gate tightly: the cache hit rate
// falling under its floor means hot-source caching stopped absorbing
// Zipf repeats, and the deadline miss rate climbing over its ceiling
// means deadline scheduling began shedding queries it used to serve in
// time.
type serveProbe struct {
	CacheHitRate     float64      `json:"serve_cache_hit_rate"`
	DeadlineMissRate float64      `json:"serve_deadline_miss_rate"`
	Graphs           []serveGraph `json:"graphs"`
}

type report struct {
	Scale   int       `json:"scale"`
	Host    *hostInfo `json:"host"`
	Results []result  `json:"results"`
	// HybridOverhead1D is the wall-clock 1d-hybrid/1d-flat ratio (the
	// PR 1 single-core regression note); its trajectory is gated
	// loosely because it shares the host with other CI jobs.
	HybridOverhead1D float64     `json:"hybrid_overhead_1d"`
	Parallel         *probe      `json:"parallel"`
	Scale18          *probe      `json:"scale18"`
	Serve            *serveProbe `json:"serve"`
}

// tolerances bound how far a candidate metric may drift from baseline.
type tolerances struct {
	allocGrow    float64 // relative allocs/op growth allowed (e.g. 0.25)
	allocSlack   float64 // absolute allocs/op slack on top of the ratio
	speedupDrop  float64 // relative batch_speedup drop allowed (e.g. 0.6)
	speedupFloor float64 // speedups below this are never compared (degenerate hosts)
	hybridGrow   float64 // relative 1d hybrid/flat overhead growth allowed (wall clock)
	// amortFloor is the absolute msbfs_sim_amortization floor: a
	// 64-wide bit-parallel batch should beat 64 sequential searches
	// several times over on the simulated clock, so falling under 2x
	// means the batched kernels stopped amortizing (e.g. a silent
	// fallback to the per-source path). Only enforced when the baseline
	// itself clears the floor, so baselines predating the batch record
	// don't wedge CI.
	amortFloor float64
	// serveFloor / serveOccFloor gate the serving layer: at a mean
	// batch occupancy of 16+ the amortized per-query simulated time
	// must beat a single warm-session search (speedup > 1), otherwise
	// the queue → former pipeline stopped batching (e.g. every query
	// dispatched alone). Like amortFloor, each is only enforced when
	// the baseline itself clears it, so baselines predating the serving
	// record don't wedge CI.
	serveFloor    float64
	serveOccFloor float64
	// serveHitRateFloor / serveMissRateCeil gate the v1 serving probe
	// (simulated clock + seeded Zipf arrivals, so deterministic): the
	// multi-graph cache hit rate must stay at or above the floor and
	// the deadline miss rate at or below the ceiling. Each is enforced
	// only when the baseline carries the probe and itself clears the
	// same bound, so pre-v1 baselines don't wedge CI.
	serveHitRateFloor float64
	serveMissRateCeil float64
	// tunedFloor gates tuned_speedup: the tuner scores the default
	// settings as candidate 0 and replaces them only on a strict
	// simulated-time win, so the ratio is >= 1 by construction. Both
	// sides derive from the simulated clock (deterministic), so the
	// floor sits just under 1 purely for float division headroom. It is
	// enforced whenever the candidate carries the field (> 0), so a
	// pre-tuner baseline doesn't suppress it.
	tunedFloor float64
	// parallelFloor is the parallel_efficiency floor, enforced only when
	// the candidate host has more than one CPU (a single-core host runs
	// both sides of the ratio on the same schedule, so its value carries
	// no signal). 1.05 is deliberately conservative — 16 rank goroutines
	// on even 2 cores clear it comfortably — because its job is to catch
	// the collapse back to ~1.0x, not to track scaling quality.
	parallelFloor float64
}

func defaultTolerances() tolerances {
	return tolerances{
		allocGrow: 0.25, allocSlack: 16, speedupDrop: 0.6, speedupFloor: 2,
		hybridGrow: 0.5, amortFloor: 2,
		serveFloor: 1, serveOccFloor: 16,
		serveHitRateFloor: 0.25, serveMissRateCeil: 0.5,
		tunedFloor:    0.999999,
		parallelFloor: 1.05,
	}
}

// warnings returns advisory messages that do not fail the gate:
// cross-host comparisons whose wall-clock columns are not directly
// comparable.
func warnings(base, cand *report) []string {
	var warn []string
	if base.Host != nil && cand.Host != nil && base.Host.NumCPU != cand.Host.NumCPU {
		warn = append(warn, fmt.Sprintf(
			"baseline host has %d cpus, candidate %d: wall-clock columns (ns/op, batch timings, parallel_efficiency) are not directly comparable",
			base.Host.NumCPU, cand.Host.NumCPU))
	}
	return warn
}

// compare returns one message per regressed metric; an empty slice
// means the candidate holds the baseline. Every baseline configuration
// must appear in the candidate — a row vanishing (or being renamed) is
// itself a regression, otherwise breaking a configuration's generation
// would silently drop it from both gates. Candidate-only
// configurations are ignored (adding one is not a regression).
func compare(base, cand *report, tol tolerances) []string {
	var bad []string
	candBy := make(map[string]result, len(cand.Results))
	for _, r := range cand.Results {
		candBy[r.Config] = r
	}
	for _, b := range base.Results {
		c, ok := candBy[b.Config]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: configuration missing from candidate", b.Config))
			continue
		}
		if limit := b.AllocsPerOp*(1+tol.allocGrow) + tol.allocSlack; c.AllocsPerOp > limit {
			bad = append(bad, fmt.Sprintf("%s: allocs/op %.0f exceeds baseline %.0f (+%.0f%% +%.0f slack)",
				b.Config, c.AllocsPerOp, b.AllocsPerOp, tol.allocGrow*100, tol.allocSlack))
		}
		if b.BatchSpeedup >= tol.speedupFloor {
			if floor := b.BatchSpeedup * (1 - tol.speedupDrop); c.BatchSpeedup < floor {
				bad = append(bad, fmt.Sprintf("%s: batch_speedup %.1fx below baseline %.1fx (-%.0f%% floor %.1fx)",
					b.Config, c.BatchSpeedup, b.BatchSpeedup, tol.speedupDrop*100, floor))
			}
		}
		if b.SimAmortization >= tol.amortFloor && c.SimAmortization < tol.amortFloor {
			bad = append(bad, fmt.Sprintf("%s: msbfs_sim_amortization %.1fx below the %.1fx floor (baseline %.1fx) — batched kernels stopped amortizing",
				b.Config, c.SimAmortization, tol.amortFloor, b.SimAmortization))
		}
		if b.ServeSpeedup > tol.serveFloor && c.ServeSpeedup <= tol.serveFloor {
			bad = append(bad, fmt.Sprintf("%s: serve_speedup %.2fx at or below the %.0fx floor (baseline %.1fx) — amortized serving no longer beats single searches",
				b.Config, c.ServeSpeedup, tol.serveFloor, b.ServeSpeedup))
		}
		if b.ServeOccupancy >= tol.serveOccFloor && c.ServeOccupancy < tol.serveOccFloor {
			bad = append(bad, fmt.Sprintf("%s: serve_batch_occupancy %.1f below the %.0f floor (baseline %.1f) — batch former stopped filling batches",
				b.Config, c.ServeOccupancy, tol.serveOccFloor, b.ServeOccupancy))
		}
		// The tuner's speedup is >= 1 by construction (defaults are
		// always scored as a candidate; strict win to displace), so any
		// candidate carrying the field under the floor means applyTuned
		// started handing out settings the tuner never validated.
		// Simulated clock on both sides — no wall-clock slack needed.
		if c.TunedSpeedup > 0 && c.TunedSpeedup < tol.tunedFloor {
			bad = append(bad, fmt.Sprintf("%s: tuned_speedup %.6f below %.6f — tuner applied settings slower than the defaults it scored",
				b.Config, c.TunedSpeedup, tol.tunedFloor))
		}
	}
	if base.HybridOverhead1D > 0 && cand.HybridOverhead1D > base.HybridOverhead1D*(1+tol.hybridGrow) {
		bad = append(bad, fmt.Sprintf("hybrid_overhead_1d %.2fx exceeds baseline %.2fx (+%.0f%%)",
			cand.HybridOverhead1D, base.HybridOverhead1D, tol.hybridGrow*100))
	}
	// Parallel-efficiency gate. Records must not vanish once the
	// baseline carries them, and on a multicore candidate host the
	// efficiency must clear its floor: collapsing to ~1.0x means a
	// serialization point crept back into the collective engine while
	// every correctness test stayed green.
	if base.Parallel != nil && cand.Parallel == nil {
		bad = append(bad, "parallel: probe record missing from candidate")
	}
	if base.Scale18 != nil && cand.Scale18 == nil {
		bad = append(bad, "scale18: probe record missing from candidate (scale-18 run no longer completes?)")
	}
	// v1 serving probe gate: the record must not vanish once the
	// baseline carries it, the Zipf cache hit rate must hold its floor,
	// the deadline miss rate its ceiling, and no baseline graph row may
	// disappear. All simulated-clock metrics — deterministic, so no
	// wall-clock slack.
	if base.Serve != nil {
		if cand.Serve == nil {
			bad = append(bad, "serve: v1 serving probe record missing from candidate")
		} else {
			if base.Serve.CacheHitRate >= tol.serveHitRateFloor &&
				cand.Serve.CacheHitRate < tol.serveHitRateFloor {
				bad = append(bad, fmt.Sprintf("serve: serve_cache_hit_rate %.3f below the %.2f floor (baseline %.3f) — hot-source cache stopped absorbing Zipf repeats",
					cand.Serve.CacheHitRate, tol.serveHitRateFloor, base.Serve.CacheHitRate))
			}
			if base.Serve.DeadlineMissRate <= tol.serveMissRateCeil &&
				cand.Serve.DeadlineMissRate > tol.serveMissRateCeil {
				bad = append(bad, fmt.Sprintf("serve: serve_deadline_miss_rate %.3f above the %.2f ceiling (baseline %.3f) — deadline scheduling sheds queries it used to serve in time",
					cand.Serve.DeadlineMissRate, tol.serveMissRateCeil, base.Serve.DeadlineMissRate))
			}
			candGraphs := make(map[string]serveGraph, len(cand.Serve.Graphs))
			for _, g := range cand.Serve.Graphs {
				candGraphs[g.Graph] = g
			}
			for _, g := range base.Serve.Graphs {
				if _, ok := candGraphs[g.Graph]; !ok {
					bad = append(bad, fmt.Sprintf("serve: graph %q missing from candidate probe — multi-graph serving lost a registry entry", g.Graph))
				}
			}
		}
	}
	if cand.Host != nil && cand.Host.NumCPU > 1 {
		for _, pr := range []struct {
			name string
			p    *probe
		}{{"parallel", cand.Parallel}, {"scale18", cand.Scale18}} {
			name, p := pr.name, pr.p
			if p != nil && p.ParallelEfficiency < tol.parallelFloor {
				bad = append(bad, fmt.Sprintf("%s: parallel_efficiency %.2fx below the %.2fx floor on a %d-cpu host — collective engine serialized",
					name, p.ParallelEfficiency, tol.parallelFloor, cand.Host.NumCPU))
			}
		}
	}
	return bad
}

func loadReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rep.Results) == 0 {
		return nil, fmt.Errorf("%s: no results", path)
	}
	return &rep, nil
}

func main() {
	var (
		baseline    = flag.String("baseline", "BENCH_bfs.json", "committed BENCH trajectory file")
		candidate   = flag.String("candidate", "", "freshly generated trajectory file to gate")
		allocGrow   = flag.Float64("alloc-tol", defaultTolerances().allocGrow, "relative allocs/op growth allowed")
		speedupDrop = flag.Float64("speedup-tol", defaultTolerances().speedupDrop, "relative batch_speedup drop allowed")
	)
	flag.Parse()
	if *candidate == "" {
		fmt.Fprintln(os.Stderr, "benchcmp: -candidate is required")
		os.Exit(2)
	}
	base, err := loadReport(*baseline)
	if err == nil {
		var cand *report
		if cand, err = loadReport(*candidate); err == nil {
			tol := defaultTolerances()
			tol.allocGrow, tol.speedupDrop = *allocGrow, *speedupDrop
			for _, msg := range warnings(base, cand) {
				fmt.Fprintln(os.Stderr, "benchcmp: WARNING:", msg)
			}
			if bad := compare(base, cand, tol); len(bad) > 0 {
				for _, msg := range bad {
					fmt.Fprintln(os.Stderr, "benchcmp: REGRESSION:", msg)
				}
				os.Exit(1)
			}
			fmt.Printf("benchcmp: OK (%d configurations within tolerance)\n", len(base.Results))
			return
		}
	}
	fmt.Fprintln(os.Stderr, "benchcmp:", err)
	os.Exit(2)
}
