package main

// metric declares one reported number. The tables below are the single
// source of the benchmark's names, units and bounds; BENCHMARK.json at
// the repository root repeats them for the driver, and TestDeclared
// keeps the two in step.
type metric struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what a user of the library or the server sees. Every
// entry is defined, and never zero, on all six workloads.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"op_ms_p90", "ms", "lower", 0.25},
	{"sources_per_s", "1/s", "higher", 0.25},
	{"heap_mb", "MiB", "lower", 0.05},
	{"alloc_kb_per_source", "KiB", "lower", 0.15},
}

// perLayer is the ledger of the traced pass: one or more numbers per
// package, taken around calls the benchmark itself makes into that
// package. A metric that does not apply to a workload reads 0 there
// (the spmat pull kernel on rmat-1d does no work; serve.* is empty on
// the library workloads).
var perLayer = []metric{
	// Set-up chain, each layer called directly.
	{"rmat.generate_s", "s", "lower", 0},
	{"webgen.generate_s", "s", "lower", 0},
	{"graph.build_csr_s", "s", "lower", 0},
	{"graph500.select_sources_s", "s", "lower", 0},
	{"bfs1d.distribute_s", "s", "lower", 0},
	{"bfs2d.distribute_s", "s", "lower", 0},
	{"bfs2d.pulls_build_s", "s", "lower", 0},

	// The pbfs facade: what Session adds on top of the drivers, and
	// the counts every search reports.
	{"pbfs.engine_build_s", "s", "lower", 0},
	{"pbfs.assemble_ms_p50", "ms", "lower", 0},
	{"pbfs.levels_per_source", "count", "lower", 0},
	{"pbfs.scanned_edges_per_source", "count", "lower", 0},
	{"pbfs.scan_ratio", "ratio", "lower", 0},
	{"sim_mteps", "MTEPS", "higher", 0},
	{"fail_share", "ratio", "lower", 0},

	// Level loops, driver called directly on a persistent world.
	{"bfs1d.run_ms_p50", "ms", "lower", 0},
	{"bfs1d.run_batch_ms_p50", "ms", "lower", 0},
	{"bfs2d.run_ms_p50", "ms", "lower", 0},

	// Local kernels, heaviest level replayed block by block.
	{"spmat.pull_ns_per_edge", "ns/edge", "lower", 0},
	{"spmat.pull_scanned_edges", "count", "lower", 0},
	{"spmat.spmsv_ns_per_edge", "ns/edge", "lower", 0},

	// Collective engine: wall cost of one round, and the simulated
	// clock's split of a search (the paper's Table 1).
	{"cluster.rendezvous_us", "us", "lower", 0},
	{"cluster.allgatherv_us", "us", "lower", 0},
	{"cluster.alltoallv_us", "us", "lower", 0},
	{"cluster.bits_allgather_us", "us", "lower", 0},
	{"cluster.words_per_source", "count", "lower", 0},
	{"cluster.sim_s_per_source", "s", "lower", 0},
	{"cluster.sim_comm_share", "ratio", "lower", 0},
	{"cluster.sim_a2a_s", "s", "lower", 0},
	{"cluster.sim_expand_s", "s", "lower", 0},
	{"cluster.sim_fold_s", "s", "lower", 0},
	{"cluster.sim_transpose_s", "s", "lower", 0},
	{"cluster.sim_bitmap_s", "s", "lower", 0},
	{"cluster.sim_allreduce_s", "s", "lower", 0},

	{"smp.do_us", "us", "lower", 0},
	{"dirheur.bottomup_level_share", "ratio", "higher", 0},
	{"serial.bfs_ms_p50", "ms", "lower", 0},

	// Serving tier, from responses, Server.Metrics() and probes.
	{"serve.queue_wait_ms_p50", "ms", "lower", 0},
	{"serve.queue_wait_ms_p90", "ms", "lower", 0},
	{"serve.exec_ms_p50", "ms", "lower", 0},
	{"serve.batches", "count", "lower", 0},
	{"serve.batch_occupancy_mean", "count", "higher", 0},
	{"serve.cache_hit_share", "ratio", "higher", 0},
	{"serve.coalesced_share", "ratio", "higher", 0},
	{"serve.shed_share", "ratio", "lower", 0},
	{"serve.queue_full_share", "ratio", "lower", 0},
	{"serve.late_share", "ratio", "lower", 0},
	{"serve.generator_lag_ms_p99", "ms", "lower", 0},
	{"serve.new_s", "s", "lower", 0},
	{"serve.queue_push_ns", "ns", "lower", 0},
	{"serve.former_next_ns", "ns", "lower", 0},
	{"serve.json_encode_ms", "ms", "lower", 0},
	{"serve.http_overhead_ms_p50", "ms", "lower", 0},
	{"serve.max_ok_rate_qps", "1/s", "higher", 0},

	// The host and the instrument itself.
	{"host.spin_mops", "Mops/s", "higher", 0},
	{"host.spin_drift_share", "ratio", "lower", 0},
	{"runtime.gc_cpu_share", "ratio", "lower", 0},
	{"trace.overhead_share", "ratio", "lower", 0},
}
