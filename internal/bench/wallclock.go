package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"testing"
	"time"

	pbfs "repro"
)

// batchSearches is the Graph 500 minimum search count, the batch size
// the amortized session metrics are measured over.
const batchSearches = 16

// msbfsSearches is the multi-source batch width the bit-parallel
// protocol is measured at: a full 64-bit mask word of searches.
const msbfsSearches = 64

// msbfsBatchRuns is how many steady-state batch executions the wall
// timing takes the minimum over; see the comment at the timing loop.
const msbfsBatchRuns = 3

// WallResult is one configuration's wall-clock and simulated profile:
// ns/op and allocs/op measure the real Go execution of one steady-state
// search through an open pbfs.Session (distribution and scratch warm)
// under the library default direction policy (auto), while
// SimSeconds/SimTEPS come from the calibrated Section 5 clock. The
// Scanned* fields record the direction-optimizing work savings against
// a top-down-only run of the same search: the "midlevel" pair restricts
// the comparison to the iterations the auto policy ran bottom-up (the
// dense middle levels). The Batch* fields are the session-layer win: a
// 16-search batch through one open session (one distribution, reused
// world and arenas) against the same batch through per-search one-shot
// BFS calls that rebuild everything each time. Together they form the
// BENCH trajectory the repository tracks across PRs.
type WallResult struct {
	Config      string  `json:"config"`
	Ranks       int     `json:"ranks"`
	Threads     int     `json:"threads"`
	Direction   string  `json:"direction"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	SimSeconds  float64 `json:"sim_seconds"`
	SimTEPS     float64 `json:"sim_teps"`

	ScannedTopDownOnly int64   `json:"scanned_edges_topdown_only"`
	ScannedAuto        int64   `json:"scanned_edges_auto"`
	ScannedAutoTD      int64   `json:"scanned_auto_topdown_phase"`
	ScannedAutoBU      int64   `json:"scanned_auto_bottomup_phase"`
	MidScannedTopDown  int64   `json:"midlevel_scanned_topdown_only"`
	MidScannedAuto     int64   `json:"midlevel_scanned_auto"`
	MidReduction       float64 `json:"midlevel_reduction"`

	// Amortized batch metrics (16-search Graph 500 batch).
	BatchSearches     int     `json:"batch_searches"`
	BatchSessionNs    float64 `json:"batch_session_ns"`
	BatchRebuildNs    float64 `json:"batch_rebuild_ns"`
	BatchSpeedup      float64 `json:"batch_speedup"`
	SetupNs           float64 `json:"setup_ns"`
	SteadyNsPerSearch float64 `json:"steady_ns_per_search"`

	// Multi-source batch record (PR 6): 64 searches traversed as one
	// bit-parallel MS-BFS batch (word-wide frontier masks, every edge
	// scan and every collective shared) against the same 64 searches run
	// sequentially through the same warm session. BatchAmortization is
	// the wall-clock ratio, MSBFSSimAmortization the simulated-clock
	// one; AmortizedPerSourceNs is the batch's wall time divided by its
	// width, SimAmortizedPerSourceNs the same division of the simulated
	// clock (the paper's machine-time domain, where one batch costs
	// sub-millisecond per source). Distances are bit-identical on both
	// sides (the batched conformance lane pins that), so the ratios
	// compare equal work.
	MSBFSSearches           int     `json:"msbfs_searches"`
	MSBFSSeqNs              float64 `json:"msbfs_sequential_ns"`
	MSBFSBatchNs            float64 `json:"msbfs_batch_ns"`
	AmortizedPerSourceNs    float64 `json:"amortized_per_source_ns"`
	BatchAmortization       float64 `json:"batch_amortization"`
	MSBFSSimSeqSeconds      float64 `json:"msbfs_sim_sequential_seconds"`
	MSBFSSimBatchSeconds    float64 `json:"msbfs_sim_seconds"`
	SimAmortizedPerSourceNs float64 `json:"sim_amortized_per_source_ns"`
	MSBFSSimAmortization    float64 `json:"msbfs_sim_amortization"`

	// Serving-layer record (PR 7): a deterministic query stream driven
	// through the internal/serve batch former (seeded bursty arrivals
	// on a fake clock, dispatch on batch-full-or-max-wait) and executed
	// on this warm session. ServeAmortizedNs is each query's amortized
	// share of the batches' simulated clock; ServeSpeedup is the
	// steady-state single-search sim time over it — the served form of
	// the MS-BFS amortization, which the bench gate holds above 1 at
	// occupancy >= 16. Both derive from the simulated clock, so they
	// are deterministic.
	ServeQueries     int     `json:"serve_queries"`
	ServeBatches     int     `json:"serve_batches"`
	ServeOccupancy   float64 `json:"serve_batch_occupancy"`
	ServeAmortizedNs float64 `json:"serve_amortized_ns"`
	ServeSpeedup     float64 `json:"serve_speedup"`

	// Auto-tuner record (PR 10): pbfs.Session.Tune run on this
	// configuration with a 4-source probe — the counterfactual regrets
	// of one recorded search turned into candidate settings, evaluated,
	// and cached. TunedSpeedup is the defaults' probe time over the
	// winner's; the defaults are always candidate 0 and ties keep them,
	// so the field is >= 1 by construction (the benchcmp gate enforces
	// the floor).
	TunedSpeedup float64 `json:"tuned_speedup,omitempty"`
}

// parallelProbeScale is the big-instance probe the trajectory tracks:
// the parallel collective engine is what makes scale-18 runs tractable,
// so the report carries a scale-18 record alongside the report-scale
// one.
const parallelProbeScale = 18

// WallReport is the machine-readable payload of BENCH_bfs.json.
type WallReport struct {
	Scale      int          `json:"scale"`
	EdgeFactor int          `json:"edge_factor"`
	Seed       uint64       `json:"seed"`
	Host       HostInfo     `json:"host"`
	Results    []WallResult `json:"results"`
	// Parallel probes the host-parallelism of the collective engine at
	// the report's scale; Scale18 repeats it at scale 18, the "big
	// instance runs to completion" record (omitted only when the report
	// itself is at scale 18 already).
	Parallel *ParallelProbe `json:"parallel,omitempty"`
	Scale18  *ParallelProbe `json:"scale18,omitempty"`
	// Serve is the v1 multi-graph serving probe (PR 9): a deterministic
	// Zipf query stream over two registered graphs through the full
	// admission path (hot-source cache, single-flight coalescing,
	// deadline scheduling), whose cache-hit and deadline-miss rates the
	// benchcmp gate floors/ceilings.
	Serve *ServeProbe `json:"serve,omitempty"`
	// HybridOverhead1D tracks the PR 1 regression note: the wall-clock
	// ratio of the 1D hybrid to the 1D flat steady-state search on this
	// host. On a single-core host the hybrid's worker goroutines are
	// pure synchronization overhead, so the ratio sits above 1; on a
	// multicore host the same code path drops below it.
	HybridOverhead1D float64 `json:"hybrid_overhead_1d"`
}

// WallClock benchmarks the four BFS variants on one R-MAT instance
// through the public session API: real ns/op, bytes/op, and allocs/op
// of a warm-session search via testing.Benchmark under the default
// direction policy, each configuration's simulated time, TEPS, and
// auto-vs-top-down scanned-edge record, plus the amortized batch
// comparison (one session for 16 searches vs 16 one-shot rebuilds).
func WallClock(scale, ef int, seed uint64) (*WallReport, error) {
	g, err := pbfs.NewRMATGraph(scale, ef, seed)
	if err != nil {
		return nil, err
	}
	srcs := g.Sources(batchSearches, seed)
	if len(srcs) == 0 {
		return nil, fmt.Errorf("bench: no usable wall-clock source")
	}
	src := srcs[0]
	const ranks = 16
	report := &WallReport{Scale: scale, EdgeFactor: ef, Seed: seed, Host: CaptureHost()}

	for _, cfg := range []struct {
		name    string
		algo    pbfs.Algorithm
		threads int
	}{
		{"1d-flat", pbfs.OneDFlat, 1},
		{"1d-hybrid", pbfs.OneDHybrid, 4},
		{"2d-flat", pbfs.TwoDFlat, 1},
		{"2d-hybrid", pbfs.TwoDHybrid, 4},
	} {
		opt := pbfs.Options{
			Algorithm: cfg.algo, Ranks: ranks, Threads: cfg.threads,
			Machine: "franklin",
		}
		res := WallResult{Config: cfg.name, Ranks: ranks, Threads: cfg.threads,
			Direction: pbfs.Auto.String(), BatchSearches: len(srcs)}

		// Cold first search: builds the engine (distribution, world,
		// arenas) that every later search in the session reuses.
		sess := pbfs.NewSession()
		start := time.Now()
		if _, err := sess.Search(g, src, opt); err != nil {
			return nil, err
		}
		coldNs := float64(time.Since(start).Nanoseconds())

		search := func(dir pbfs.Direction, trace bool) (*pbfs.Result, error) {
			o := opt
			o.Direction = dir
			o.Trace = trace
			return sess.Search(g, src, o)
		}
		auto, err := search(pbfs.Auto, true)
		if err != nil {
			return nil, err
		}
		// Same engine, different direction policy: sessions are safe to
		// reuse across policies.
		td, err := search(pbfs.TopDownOnly, true)
		if err != nil {
			return nil, err
		}
		res.SimSeconds = auto.SimTime
		res.SimTEPS = auto.TEPS()
		res.ScannedTopDownOnly = td.ScannedTopDown
		res.ScannedAutoTD = auto.ScannedTopDown
		res.ScannedAutoBU = auto.ScannedBottomUp
		res.ScannedAuto = auto.ScannedTopDown + auto.ScannedBottomUp
		// Both runs traverse the same level structure, so their per-level
		// scan profiles align; restrict the ratio to the iterations the
		// auto policy ran bottom-up (the heavy middle levels).
		for l, bu := range auto.LevelBottomUp {
			if !bu || l >= len(td.LevelScanned) {
				continue
			}
			res.MidScannedTopDown += td.LevelScanned[l]
			res.MidScannedAuto += auto.LevelScanned[l]
		}
		if res.MidScannedAuto > 0 {
			res.MidReduction = float64(res.MidScannedTopDown) / float64(res.MidScannedAuto)
		}
		var benchErr error
		fill(&res, testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := search(pbfs.Auto, false); err != nil {
					benchErr = err
					b.FailNow()
				}
			}
		}))
		if benchErr != nil {
			return nil, benchErr
		}

		// The tentpole measurement: a full mask word of searches as one
		// MS-BFS batch against the same searches run sequentially, both
		// through this warm session — wall clock and simulated clock. The
		// sequential pass runs first (it warms nothing the batch needs
		// beyond the already-built engine); the batch gets one warm-up
		// call to build its word-wide arenas, then a steady-state timing.
		srcs64 := g.Sources(msbfsSearches, seed+1)
		if len(srcs64) == 0 {
			return nil, fmt.Errorf("bench: no usable MS-BFS sources")
		}
		res.MSBFSSearches = len(srcs64)
		var seqSim float64
		start = time.Now()
		for _, s := range srcs64 {
			r, err := sess.Search(g, s, opt)
			if err != nil {
				return nil, err
			}
			seqSim += r.SimTime
		}
		res.MSBFSSeqNs = float64(time.Since(start).Nanoseconds())
		if _, err := sess.BFSBatch(g, srcs64, opt); err != nil {
			return nil, err
		}
		// Take the minimum over a few steady-state runs: one batch emits
		// ~width*N*16 bytes of fresh output planes, so a single timed
		// call is at the mercy of GC assist and page-fault spikes that
		// the sequential loop above self-averages away.
		var br *pbfs.BatchResult
		for i := 0; i < msbfsBatchRuns; i++ {
			start = time.Now()
			b, err := sess.BFSBatch(g, srcs64, opt)
			if err != nil {
				return nil, err
			}
			if ns := float64(time.Since(start).Nanoseconds()); i == 0 || ns < res.MSBFSBatchNs {
				res.MSBFSBatchNs = ns
			}
			br = b
		}
		res.AmortizedPerSourceNs = res.MSBFSBatchNs / float64(len(srcs64))
		if res.MSBFSBatchNs > 0 {
			res.BatchAmortization = res.MSBFSSeqNs / res.MSBFSBatchNs
		}
		res.MSBFSSimSeqSeconds = seqSim
		res.MSBFSSimBatchSeconds = br.SimTime
		res.SimAmortizedPerSourceNs = br.SimTime * 1e9 / float64(len(srcs64))
		if br.SimTime > 0 {
			res.MSBFSSimAmortization = seqSim / br.SimTime
		}

		// The serving layer over the same warm session: the queue →
		// former pipeline batches a deterministic bursty query stream
		// and must preserve the kernel's amortization end to end.
		prof, err := serveBench(sess, g, opt, srcs64, seed+2)
		if err != nil {
			return nil, err
		}
		res.ServeQueries = prof.queries
		res.ServeBatches = prof.batches
		res.ServeOccupancy = prof.occupancy
		res.ServeAmortizedNs = prof.amortizedSimNs
		if prof.amortizedSimNs > 0 {
			res.ServeSpeedup = res.SimSeconds * 1e9 / prof.amortizedSimNs
		}

		// The auto-tuner on the same warm session: candidate settings from
		// one search's counterfactual regrets, scored on a 4-source probe.
		probe := srcs
		if len(probe) > 4 {
			probe = probe[:4]
		}
		tuned, err := sess.Tune(g, opt, probe)
		if err != nil {
			return nil, err
		}
		res.TunedSpeedup = tuned.Speedup

		// The amortized batch: the full Graph 500 search list through
		// the warm session, against the same list through one-shot BFS
		// calls that redistribute per search.
		start = time.Now()
		for _, s := range srcs {
			if _, err := sess.Search(g, s, opt); err != nil {
				return nil, err
			}
		}
		res.BatchSessionNs = float64(time.Since(start).Nanoseconds())
		sess.Close()

		start = time.Now()
		for _, s := range srcs {
			if _, err := g.BFS(s, opt); err != nil {
				return nil, err
			}
		}
		res.BatchRebuildNs = float64(time.Since(start).Nanoseconds())
		if res.BatchSessionNs > 0 {
			res.BatchSpeedup = res.BatchRebuildNs / res.BatchSessionNs
		}
		res.SteadyNsPerSearch = res.BatchSessionNs / float64(len(srcs))
		if res.SetupNs = coldNs - res.SteadyNsPerSearch; res.SetupNs < 0 {
			res.SetupNs = 0
		}
		report.Results = append(report.Results, res)
	}
	var flat1d, hybrid1d float64
	for _, r := range report.Results {
		switch r.Config {
		case "1d-flat":
			flat1d = r.NsPerOp
		case "1d-hybrid":
			hybrid1d = r.NsPerOp
		}
	}
	if flat1d > 0 {
		report.HybridOverhead1D = hybrid1d / flat1d
	}
	// Host-parallelism probes: one at the report's scale (the
	// parallel_efficiency the benchcmp gate floors on multicore hosts)
	// and one at scale 18, the big instance the parallel collective
	// engine unlocks.
	if report.Parallel, err = MeasureParallel(scale, ef, seed); err != nil {
		return nil, err
	}
	if scale != parallelProbeScale {
		if report.Scale18, err = MeasureParallel(parallelProbeScale, ef, seed); err != nil {
			return nil, err
		}
	} else {
		report.Scale18 = report.Parallel
	}
	// The v1 serving probe: the report's graph plus a smaller secondary
	// registered on one server, measured through the full admission
	// path under a fake clock.
	if report.Serve, err = MeasureServe(g, scale, ef, seed); err != nil {
		return nil, err
	}
	return report, nil
}

func fill(res *WallResult, r testing.BenchmarkResult) {
	res.NsPerOp = float64(r.NsPerOp())
	res.AllocsPerOp = float64(r.AllocsPerOp())
	res.BytesPerOp = float64(r.AllocedBytesPerOp())
}

// WriteJSON writes the report to path, and a human summary to w.
func (rep *WallReport) WriteJSON(path string, w io.Writer) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "\n=== Wall-clock BFS searches (scale %d, ef %d) -> %s ===\n",
		rep.Scale, rep.EdgeFactor, path)
	fmt.Fprintf(w, "host: %d cpus, GOMAXPROCS %d, %s, %s\n",
		rep.Host.NumCPU, rep.Host.GOMAXPROCS, rep.Host.GoVersion, rep.Host.Timestamp)
	fmt.Fprintf(w, "%-10s %6s %3s %14s %14s %12s %12s %10s\n",
		"config", "ranks", "t", "ns/op", "allocs/op", "sim-s", "sim-TEPS", "mid-reduc")
	for _, r := range rep.Results {
		fmt.Fprintf(w, "%-10s %6d %3d %14.0f %14.0f %12.3g %12.4g %9.1fx\n",
			r.Config, r.Ranks, r.Threads, r.NsPerOp, r.AllocsPerOp, r.SimSeconds, r.SimTEPS,
			r.MidReduction)
	}
	fmt.Fprintf(w, "1d hybrid/flat wall-clock overhead: %.2fx\n", rep.HybridOverhead1D)
	fmt.Fprintf(w, "\n%-10s %8s %16s %16s %9s %14s %16s\n",
		"config", "searches", "batch-session", "batch-rebuild", "speedup",
		"setup-ns", "steady-ns/srch")
	for _, r := range rep.Results {
		fmt.Fprintf(w, "%-10s %8d %16.0f %16.0f %8.1fx %14.0f %16.0f\n",
			r.Config, r.BatchSearches, r.BatchSessionNs, r.BatchRebuildNs,
			r.BatchSpeedup, r.SetupNs, r.SteadyNsPerSearch)
	}
	fmt.Fprintf(w, "\n%-10s %8s %16s %16s %14s %11s %10s %16s\n",
		"config", "msbfs-k", "sequential-ns", "batch-ns", "amort-ns/src",
		"wall-amort", "sim-amort", "sim-amort-ns/src")
	for _, r := range rep.Results {
		fmt.Fprintf(w, "%-10s %8d %16.0f %16.0f %14.0f %10.1fx %9.1fx %16.0f\n",
			r.Config, r.MSBFSSearches, r.MSBFSSeqNs, r.MSBFSBatchNs,
			r.AmortizedPerSourceNs, r.BatchAmortization, r.MSBFSSimAmortization,
			r.SimAmortizedPerSourceNs)
	}
	fmt.Fprintf(w, "\n%-10s %8s %8s %10s %16s %14s %14s\n",
		"config", "queries", "batches", "occupancy", "serve-amort-ns", "serve-speedup",
		"tuned-speedup")
	for _, r := range rep.Results {
		fmt.Fprintf(w, "%-10s %8d %8d %10.1f %16.0f %13.1fx %13.3fx\n",
			r.Config, r.ServeQueries, r.ServeBatches, r.ServeOccupancy,
			r.ServeAmortizedNs, r.ServeSpeedup, r.TunedSpeedup)
	}
	if rep.Serve != nil {
		s := rep.Serve
		fmt.Fprintf(w, "\nserve v1 probe: %d Zipf queries over %d graphs — served %d, deadline shed %d/%d (miss rate %.3f), coalesced %d, cache hit rate %.3f\n",
			s.Queries, len(s.Graphs), s.Served, s.DeadlineShed, s.DeadlineCarrying,
			s.DeadlineMissRate, s.Coalesced, s.CacheHitRate)
		fmt.Fprintf(w, "%-12s %8s %8s %10s %10s\n",
			"graph", "queries", "batches", "occupancy", "hit-rate")
		for _, gp := range s.Graphs {
			fmt.Fprintf(w, "%-12s %8d %8d %10.1f %10.3f\n",
				gp.Graph, gp.Queries, gp.Batches, gp.MeanOccupancy, gp.CacheHitRate)
		}
	}
	if rep.Parallel != nil {
		fmt.Fprintf(w, "\n%-10s %6s %6s %18s %18s %12s %12s %12s\n",
			"probe", "scale", "ranks", "ns/srch@procs=1", "ns/srch@procs=N",
			"par-eff", "sim-s", "sim-TEPS")
		for _, p := range []*ParallelProbe{rep.Parallel, rep.Scale18} {
			if p == nil {
				continue
			}
			fmt.Fprintf(w, "%-10s %6d %6d %18.0f %18.0f %11.2fx %12.3g %12.4g\n",
				p.Config, p.Scale, p.Ranks, p.NsSerial, p.NsParallel,
				p.ParallelEfficiency, p.SimSeconds, p.SimTEPS)
		}
	}
	return nil
}
