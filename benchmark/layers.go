package main

import (
	"fmt"
	"time"

	pbfs "repro"
	"repro/internal/bfs1d"
	"repro/internal/bfs2d"
	"repro/internal/bits"
	"repro/internal/cluster"
	"repro/internal/dirheur"
	"repro/internal/graph"
	"repro/internal/graph500"
	"repro/internal/netmodel"
	"repro/internal/rmat"
	"repro/internal/serial"
	"repro/internal/smp"
	"repro/internal/spmat"
	"repro/internal/spvec"
	"repro/internal/webgen"
)

// This file is where the benchmark steps below the public surfaces: it
// calls each internal layer's exported functions directly, with the
// inputs the facade would have given them, and times the calls from
// here. Nothing in the layers is instrumented.

const ranks = 16 // every workload emulates 16 processes

// graphSpec names one generated graph.
type graphSpec struct {
	web    bool
	served bool // the smaller crawl the server carries
}

// layerState is one graph taken through the set-up chain by hand, and
// the persistent world a session engine would hold for it.
type layerState struct {
	seconds map[string]float64 // per-layer set-up seconds, by metric name
	world   *cluster.World
	price   cluster.Pricer
	dg1     *bfs1d.Graph
	arena1  bfs1d.Arena
	grid    *cluster.Grid
	dg2     *bfs2d.Graph
	arena2  bfs2d.Arena
}

func (ls *layerState) close() {
	ls.arena1.Close()
	ls.arena2.Close()
}

func generate(e env, spec graphSpec) (*graph.EdgeList, error) {
	if spec.web {
		return webgen.UKUnionLike(e.webVerts(spec.served), e.webSeed()).GenerateUndirected()
	}
	return rmat.Graph500(e.rmatScale(), 16, e.rmatSeed()).GenerateUndirected()
}

// chain takes one graph through generate, CSR, key selection and
// distribution, adding each layer's seconds to ls.seconds. The
// distributed graph of the first call is kept for the direct runs.
func (ls *layerState) chain(e env, tr *tracer, parent int, spec graphSpec, opt pbfs.Options) error {
	var el *graph.EdgeList
	var csr *graph.CSR
	var err error
	genName, genLayer := "rmat.generate_s", "rmat"
	if spec.web {
		genName, genLayer = "webgen.generate_s", "webgen"
	}
	ls.seconds[genName] += tr.timed(parent, "generate", genLayer, func() { el, err = generate(e, spec) })
	if err != nil {
		return fmt.Errorf("generate: %w", err)
	}
	ls.seconds["graph.build_csr_s"] += tr.timed(parent, "build_csr", "graph", func() { csr, err = graph.BuildCSR(el, true) })
	if err != nil {
		return fmt.Errorf("build CSR: %w", err)
	}
	ls.seconds["graph500.select_sources_s"] += tr.timed(parent, "select_sources", "graph500", func() {
		graph500.SelectSources(csr, searchKeys, subSeed(e.seed, 1))
	})
	threads := threadsOf(opt)
	if opt.Algorithm == pbfs.TwoDFlat || opt.Algorithm == pbfs.TwoDHybrid {
		pr, pc := cluster.ClosestSquare(ranks)
		var dg *bfs2d.Graph
		ls.seconds["bfs2d.distribute_s"] += tr.timed(parent, "distribute", "bfs2d", func() { dg, err = bfs2d.Distribute(el, pr, pc, threads) })
		if err != nil {
			return fmt.Errorf("bfs2d distribute: %w", err)
		}
		if opt.Direction != pbfs.TopDownOnly {
			ls.seconds["bfs2d.pulls_build_s"] += tr.timed(parent, "pulls_build", "bfs2d", func() { dg.Pulls() })
		}
		if ls.dg2 == nil {
			ls.dg2 = dg
		}
	} else {
		var dg *bfs1d.Graph
		ls.seconds["bfs1d.distribute_s"] += tr.timed(parent, "distribute", "bfs1d", func() { dg, err = bfs1d.Distribute(el, ranks) })
		if err != nil {
			return fmt.Errorf("bfs1d distribute: %w", err)
		}
		dg.Symmetric = true // generated graphs hold both directions of every edge
		if ls.dg1 == nil {
			ls.dg1 = dg
		}
	}
	if ls.world == nil {
		// The world a session engine keeps: priced by the machine
		// profile with the rank's threads sharing a node.
		m := netmodel.Profiles()[opt.Machine]
		shared := m.WithRanksPerNode(m.CoresPerNode / threads)
		ls.world, ls.price = cluster.NewWorld(ranks, shared), shared
		if ls.dg2 != nil {
			pr, pc := cluster.ClosestSquare(ranks)
			ls.grid = cluster.NewGrid(ls.world, pr, pc)
		}
	}
	return nil
}

// layerSetup runs the library workload's graph through the chain.
func (w *workload) layerSetup(e env, tr *tracer) (*layerState, error) {
	ls := &layerState{seconds: map[string]float64{}}
	root := tr.begin(0, "layer_setup", "benchmark", 0)
	err := ls.chain(e, tr, root, graphSpec{web: w.web}, w.opt)
	tr.end(root)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	return ls, nil
}

// levelLoop names the level-loop package the workload runs on and the
// metric its direct runs report.
func (ls *layerState) levelLoop(w *workload) (layer, metric string) {
	switch {
	case ls.dg2 != nil:
		return "bfs2d", "bfs2d.run_ms_p50"
	case w.kind == libBatch:
		return "bfs1d", "bfs1d.run_batch_ms_p50"
	}
	return "bfs1d", "bfs1d.run_ms_p50"
}

// threadsOf is the intra-rank width the engine resolves opt to: only
// the hybrid workload asks for more than one.
func threadsOf(opt pbfs.Options) int {
	if opt.Algorithm == pbfs.TwoDHybrid {
		return opt.Threads
	}
	return 1
}

func mode(d pbfs.Direction) dirheur.Mode {
	if d == pbfs.TopDownOnly {
		return dirheur.ModeTopDown
	}
	return dirheur.ModeAuto
}

// runDirect calls the level-loop driver the way the session engine
// does, minus the session: same world, arena and options, on the i-th
// key in rotation (every key for the batch driver).
func (ls *layerState) runDirect(w *workload, keys []int64, i int) error {
	src := keys[i%len(keys)]
	ls.world.Reset()
	switch {
	case ls.dg2 != nil:
		if _, err := bfs2d.Run(ls.world, ls.grid, ls.dg2, src, bfs2d.Options{
			Threads: threadsOf(w.opt), Kernel: spmat.KernelAuto, Vector: bfs2d.Dist2D,
			Direction: mode(w.opt.Direction), Price: ls.price, Arena: &ls.arena2,
		}); err != nil {
			return fmt.Errorf("%s: direct run: %w", w.name, err)
		}
	case w.kind == libBatch:
		bfs1d.RunBatch(ls.world, ls.dg1, keys, ls.opt1D(w))
	default:
		bfs1d.Run(ls.world, ls.dg1, src, ls.opt1D(w))
	}
	return nil
}

func (ls *layerState) opt1D(w *workload) bfs1d.Options {
	return bfs1d.Options{Threads: 1, LocalShortcut: true, DedupSends: true,
		Direction: mode(w.opt.Direction), Price: ls.price, Arena: &ls.arena1}
}

// replayKernels times the local kernels of the 2D drivers on the
// heaviest level of one search: frontier and visited set are rebuilt
// from the oracle's distances, then every grid block is pulled
// (bottom-up kernel) and multiplied (top-down SpMSV) on its own.
func (ls *layerState) replayKernels(st *libState, tr *tracer, m map[string]float64) {
	if ls.dg2 == nil {
		return
	}
	dist := st.g.SerialBFS(st.keys[0]).Dist
	perLevel := map[int64]int{}
	for _, d := range dist {
		if d > 0 {
			perLevel[d]++
		}
	}
	var heavy int64 = 1
	for l, n := range perLevel {
		if n > perLevel[heavy] || (n == perLevel[heavy] && l < heavy) {
			heavy = l
		}
	}
	pt := ls.dg2.Part
	front, vis := bits.NewBitmap(pt.N), bits.NewBitmap(pt.N)
	cols := make([]spvec.Vec, pt.Pc) // the frontier as each block column sees it
	for v, d := range dist {
		if d == serial.Unreached || d >= heavy {
			continue
		}
		vis.Set(int64(v))
		if d == heavy-1 {
			front.Set(int64(v))
			j := pt.ColBlockOf(int64(v))
			cols[j].Append(int64(v)-pt.ColStart(j), int64(v))
		}
	}
	pulls := ls.dg2.Pulls()
	var dst spvec.Vec
	var psc spmat.PullScratch
	var rsc spmat.RowScratch
	replay := func(name string, kernel func(i, j int) int64) (nsPerEdge float64, edges int64) {
		id := tr.begin(0, name, "spmat", 0)
		defer tr.end(id)
		var reps int
		start := time.Now()
		for time.Since(start) < 100*time.Millisecond || reps < 3 {
			edges = 0
			for i := 0; i < pt.Pr; i++ {
				for j := 0; j < pt.Pc; j++ {
					edges += kernel(i, j)
				}
			}
			reps++
		}
		if edges == 0 {
			return 0, 0
		}
		return float64(time.Since(start).Nanoseconds()) / float64(reps) / float64(edges), edges
	}
	var scanned int64
	m["spmat.pull_ns_per_edge"], scanned = replay("pull", func(i, j int) int64 {
		return pulls[i][j].Pull(&dst, front, vis, pt.RowStart(i), pt.ColStart(j), nil, &psc)
	})
	m["spmat.pull_scanned_edges"] = float64(scanned)
	m["spmat.spmsv_ns_per_edge"], _ = replay("spmsv", func(i, j int) int64 {
		blk := ls.dg2.Blocks[i][j]
		blk.SpMSV(&dst, &cols[j], spmat.SpMSVOpts{Kernel: spmat.KernelAuto}, nil, &rsc)
		return blk.Work(&cols[j])
	})
}

// hostProbes runs the probes every traced pass shares: they depend on
// the host and the graph, not on how the workload drives the program.
func hostProbes(g *pbfs.Graph, keys []int64, tr *tracer, m map[string]float64, smoke bool) {
	serialProbe(g, keys, tr, m)
	clusterProbes(tr, m, smoke)
	smpProbe(tr, m, smoke)
}

// serialProbe is the plain single-threaded run of the same keys: the
// reference every op_ms_p50 is read against.
func serialProbe(g *pbfs.Graph, keys []int64, tr *tracer, m map[string]float64) {
	id := tr.begin(0, "bfs", "serial", 0)
	defer tr.end(id)
	var ms []float64
	for _, k := range keys {
		start := time.Now()
		g.SerialBFS(k)
		ms = append(ms, msSince(start))
	}
	m["serial.bfs_ms_p50"] = median(ms)
}

// clusterProbes times one round of each collective the drivers use on
// a 16-rank world, at payloads the size a level moves: the rendezvous
// alone (a one-word allreduce), then the three data-carrying ones.
func clusterProbes(tr *tracer, m map[string]float64, smoke bool) {
	rounds := 1000
	if smoke {
		rounds = 50
	}
	w := cluster.NewWorld(ranks, netmodel.Hopper())
	g := w.WorldGroup()
	const words = 64
	vec := make([]int64, 4*words)
	mat := make([][]int64, ranks)
	for i := range mat {
		mat[i] = vec[:words]
	}
	bm := make([]uint64, words)
	probe := func(name string, round func(r *cluster.Rank)) {
		w.Reset()
		id := tr.begin(0, name, "cluster", 0)
		start := time.Now()
		w.Run(func(r *cluster.Rank) {
			for i := 0; i < rounds; i++ {
				round(r)
			}
		})
		m["cluster."+name+"_us"] = float64(time.Since(start).Nanoseconds()) / 1e3 / float64(rounds)
		tr.end(id)
	}
	probe("rendezvous", func(r *cluster.Rank) { g.AllreduceSum(r, 1, "allreduce") })
	probe("allgatherv", func(r *cluster.Rank) { g.Allgatherv(r, vec, "expand") })
	probe("alltoallv", func(r *cluster.Rank) { g.Alltoallv(r, mat, "a2a") })
	probe("bits_allgather", func(r *cluster.Rank) {
		g.AllgatherBitsBlocks(r, bm, int64(r.ID())*words, ranks*words, "bitmap")
	})
}

// smpProbe times the hybrid drivers' fork-join: Pool.Do at width 4
// with nothing to do.
func smpProbe(tr *tracer, m map[string]float64, smoke bool) {
	calls := 20000
	if smoke {
		calls = 500
	}
	p := smp.NewPool(4)
	defer p.Close()
	id := tr.begin(0, "do", "smp", 0)
	start := time.Now()
	for i := 0; i < calls; i++ {
		p.Do(4, func(int) {})
	}
	m["smp.do_us"] = float64(time.Since(start).Nanoseconds()) / 1e3 / float64(calls)
	tr.end(id)
}
