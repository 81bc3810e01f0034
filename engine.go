package pbfs

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/baseline"
	"repro/internal/bfs1d"
	"repro/internal/bfs2d"
	"repro/internal/cluster"
	"repro/internal/decis"
	"repro/internal/dirheur"
	"repro/internal/levels"
	"repro/internal/netmodel"
	"repro/internal/spmat"
)

// layout is an engine cache key: the resolved Options fields that
// determine an engine's distributed data structures and clock pricing.
// Two Options values with equal layouts share one engine; a change in
// any field means a different distribution, grid, thread shape, or
// cost model, so the session builds (and caches) another engine.
// Per-search fields (Direction, Trace) are not part
// of the key: one engine serves every direction policy.
type layout struct {
	algo    Algorithm
	ranks   int
	pr, pc  int // resolved 2D grid shape; zero for non-2D algorithms
	threads int
	machine string
}

// resolveLayout validates and normalizes Options into a layout, so that
// defaulted and explicit spellings of the same configuration (Ranks 0
// vs 4, GridRows/GridCols 0 vs the closest-square factorization) land
// on the same engine.
func resolveLayout(opt Options) (layout, error) {
	switch opt.Algorithm {
	case OneDFlat, OneDHybrid, TwoDFlat, TwoDHybrid, Reference, PBGL:
	default:
		return layout{}, fmt.Errorf("pbfs: unknown algorithm %d", int(opt.Algorithm))
	}
	lay := layout{
		algo:    opt.Algorithm,
		ranks:   opt.Ranks,
		machine: opt.Machine,
	}
	twoD := opt.Algorithm == TwoDFlat || opt.Algorithm == TwoDHybrid
	if lay.ranks < 1 {
		// A fully specified grid implies its own rank count; otherwise
		// fall back to the library default.
		if twoD && opt.GridRows > 0 && opt.GridCols > 0 {
			if opt.GridRows > math.MaxInt/opt.GridCols {
				return layout{}, fmt.Errorf("pbfs: grid %dx%d has more ranks than an int holds",
					opt.GridRows, opt.GridCols)
			}
			lay.ranks = opt.GridRows * opt.GridCols
		} else {
			lay.ranks = 4
		}
	}
	var machine *netmodel.Machine
	if opt.Machine != "" {
		m, ok := netmodel.Profiles()[opt.Machine]
		if !ok {
			return layout{}, fmt.Errorf("pbfs: unknown machine %q (want franklin, hopper or carver)", opt.Machine)
		}
		machine = m
	}
	lay.threads = opt.Threads
	hybrid := opt.Algorithm == OneDHybrid || opt.Algorithm == TwoDHybrid
	if lay.threads < 1 {
		lay.threads = 1
		if hybrid {
			lay.threads = 4
			if machine != nil {
				lay.threads = machine.ThreadsPerRank
			}
		}
	}
	// Only the 2D drivers consume the grid shape; leaving it out of
	// other algorithms' keys keeps a session from building redundant
	// engines (and paying duplicate distributions) for configurations
	// that run the same search. Threads stays in every key: it feeds the
	// shared-machine cost model even for the flat and comparator codes.
	if twoD {
		pr, pc := opt.GridRows, opt.GridCols
		switch {
		case pr == 0 && pc == 0:
			pr, pc = cluster.ClosestSquare(lay.ranks)
		case pr > 0 && pc == 0 && lay.ranks%pr == 0:
			pc = lay.ranks / pr
		case pc > 0 && pr == 0 && lay.ranks%pc == 0:
			pr = lay.ranks / pc
		}
		// pr·pc = ranks, checked by division: the product can wrap.
		if pr < 1 || pc < 1 || lay.ranks%pr != 0 || lay.ranks/pr != pc {
			req := fmt.Sprintf("%dx%d", opt.GridRows, opt.GridCols)
			switch {
			case opt.GridRows > 0 && opt.GridCols == 0:
				req = fmt.Sprintf("GridRows=%d", opt.GridRows)
			case opt.GridCols > 0 && opt.GridRows == 0:
				req = fmt.Sprintf("GridCols=%d", opt.GridCols)
			}
			return layout{}, fmt.Errorf("pbfs: %d ranks not factorable into the requested grid (%s)",
				lay.ranks, req)
		}
		lay.pr, lay.pc = pr, pc
	}
	return lay, nil
}

// pricing returns the cost model the engine's world charges collectives
// against and the pricer its driver charges local computation against
// (nil pricer = pure correctness mode).
func (lay layout) pricing() (cluster.CostModel, cluster.Pricer) {
	if lay.machine == "" {
		return cluster.ZeroCost{}, nil
	}
	m := netmodel.Profiles()[lay.machine]
	shared := m.WithRanksPerNode(m.CoresPerNode / lay.threads)
	return shared, shared
}

// resolveDirection maps Options.Direction onto the drivers' heuristic
// mode.
func resolveDirection(opt Options) (dirheur.Mode, error) {
	var mode dirheur.Mode
	switch opt.Direction {
	case Auto:
		mode = dirheur.ModeAuto
	case TopDownOnly:
		mode = dirheur.ModeTopDown
	case BottomUpOnly:
		mode = dirheur.ModeBottomUp
	default:
		return 0, fmt.Errorf("pbfs: unknown direction %v", opt.Direction)
	}
	return mode, nil
}

// engine is the driver-side half of a Session: it owns one layout's
// long-lived state — the distributed graph (with its lazily-built pull
// structures), the world (and grid) whose communicator groups carry the
// collectives, and the cross-search scratch arenas — and runs searches
// against it. Engines are not safe for concurrent searches (arenas
// serve one run at a time); the session serializes access.
type engine interface {
	// search runs one BFS from source; opt supplies only the per-search
	// fields (Direction, Trace).
	search(source int64, opt Options) (*Result, error)
	// searchBatch runs up to BatchWidth sources through one bit-parallel
	// level loop when the engine has one, or a sequential per-source
	// loop otherwise (the comparator codes).
	searchBatch(sources []int64, opt Options) (*BatchResult, error)
	// rebind points the engine at a different facade graph, rebuilding
	// the distribution while keeping the world, grid, and arenas.
	rebind(g *Graph) error
	// boundTo returns the facade graph the engine currently serves.
	boundTo() *Graph
	// close releases held resources (worker-pool goroutines).
	close()
}

// distributions counts graph distributions performed by engines, so
// tests can assert that a batch pays for exactly one per configuration.
var distributions atomic.Int64

// newEngine builds the engine for a layout and distributes g onto it.
func newEngine(lay layout, g *Graph) (engine, error) {
	model, price := lay.pricing()
	var e engine
	switch lay.algo {
	case OneDFlat, OneDHybrid:
		e = &engine1D{lay: lay, w: cluster.NewWorld(lay.ranks, model), price: price}
	case Reference, PBGL:
		e = &engineBase{lay: lay, w: cluster.NewWorld(lay.ranks, model), price: price}
	case TwoDFlat, TwoDHybrid:
		w := cluster.NewWorld(lay.ranks, model)
		e = &engine2D{lay: lay, w: w, grid: cluster.NewGrid(w, lay.pr, lay.pc), price: price}
	default:
		return nil, fmt.Errorf("pbfs: unknown algorithm %v", lay.algo)
	}
	if err := e.rebind(g); err != nil {
		return nil, err
	}
	return e, nil
}

// gridAlternatives lists the pr'×pc' factorizations of ranks the
// closest-square derivation rejected, in ascending pr' order: the
// candidate set a grid counterfactual replays.
func gridAlternatives(ranks, pr, pc int) []string {
	var alts []string
	for r := 1; r <= ranks; r++ {
		if ranks%r != 0 || (r == pr && ranks/r == pc) {
			continue
		}
		alts = append(alts, decis.GridChoice(r, ranks/r))
	}
	return alts
}

// ledger returns the world's clock ledger: the simulated time, the
// largest per-rank communication time, the communication time per
// collective tag, and the words sent and received. Callers reset the
// world before each run, so the stats are exactly that run's profile.
func ledger(w *cluster.World) (sim, comm float64, byTag map[string]float64, sent, recv int64) {
	st := w.Stats()
	for _, c := range st.CommTime {
		if c > comm {
			comm = c
		}
	}
	return st.MaxClock, comm, st.CommByTag, st.TotalSent, st.TotalRecvd
}

// newResult converts a driver output into a Result priced by w's ledger.
// The drivers count adjacency slots, both directions of each undirected
// edge, so the edge count halves.
func newResult(out *levels.Output, w *cluster.World) *Result {
	res := &Result{
		Source: out.Source, Dist: out.Dist, Parent: out.Parent,
		Levels: out.Levels, TraversedEdges: out.TraversedEdges / 2,
		ScannedTopDown: out.ScannedTopDown, ScannedBottomUp: out.ScannedBottomUp,
		LevelFrontier: out.LevelFrontier, LevelScanned: out.LevelScanned,
		LevelBottomUp: out.LevelBottomUp, LevelCommWords: out.LevelCommWords,
		Decisions: out.Decisions,
	}
	res.SimTime, res.CommTime, res.CommByPhase, res.SentWords, res.RecvWords = ledger(w)
	return res
}

// engine1D drives the 1D vertex-partitioned algorithms (flat and
// hybrid; the thread width is fixed in the layout).
type engine1D struct {
	lay   layout
	g     *Graph
	dg    *bfs1d.Graph
	w     *cluster.World
	price cluster.Pricer
	arena bfs1d.Arena
}

func (e *engine1D) boundTo() *Graph { return e.g }

func (e *engine1D) rebind(g *Graph) error {
	dg, err := bfs1d.FromCSR(g.csr, e.lay.ranks)
	if err != nil {
		return err
	}
	distributions.Add(1)
	// Undirected facade graphs are symmetrized, so the bottom-up phase
	// can pull over the push CSRs without a transposed copy.
	dg.Symmetric = !g.directed
	e.g, e.dg = g, dg
	return nil
}

func (e *engine1D) search(source int64, opt Options) (*Result, error) {
	mode, err := resolveDirection(opt)
	if err != nil {
		return nil, err
	}
	e.w.Reset()
	out := bfs1d.Run(e.w, e.dg, source, bfs1d.Options{
		Threads: e.lay.threads, LocalShortcut: true, DedupSends: true,
		Direction: mode, Price: e.price, Trace: opt.Trace, Force: opt.force, Arena: &e.arena,
	})
	return newResult(out, e.w), nil
}

func (e *engine1D) searchBatch(sources []int64, opt Options) (*BatchResult, error) {
	mode, err := resolveDirection(opt)
	if err != nil {
		return nil, err
	}
	e.w.Reset()
	out := bfs1d.RunBatch(e.w, e.dg, sources, bfs1d.Options{
		Threads: e.lay.threads, LocalShortcut: true, DedupSends: true,
		Direction: mode, Price: e.price, Trace: opt.Trace, Arena: &e.arena,
	})
	return newBatchResult(out, e.w), nil
}

func (e *engine1D) close() { e.arena.Close() }

// engine2D drives the 2D checkerboard algorithms on the layout's pr×pc
// grid. It owns the grid's row/column subcommunicators in addition to
// the world.
type engine2D struct {
	lay   layout
	g     *Graph
	dg    *bfs2d.Graph
	w     *cluster.World
	grid  *cluster.Grid
	price cluster.Pricer
	arena bfs2d.Arena
}

func (e *engine2D) boundTo() *Graph { return e.g }

func (e *engine2D) rebind(g *Graph) error {
	dg, err := bfs2d.FromCSR(g.csr, e.lay.pr, e.lay.pc, e.lay.threads)
	if err != nil {
		return err
	}
	distributions.Add(1)
	e.g, e.dg = g, dg
	return nil
}

func (e *engine2D) search(source int64, opt Options) (*Result, error) {
	mode, err := resolveDirection(opt)
	if err != nil {
		return nil, err
	}
	e.w.Reset()
	out, err := bfs2d.Run(e.w, e.grid, e.dg, source, bfs2d.Options{
		Threads: e.lay.threads, Kernel: spmat.KernelAuto, Vector: bfs2d.Dist2D,
		Direction: mode, Price: e.price, Trace: opt.Trace, Force: opt.force, Arena: &e.arena,
	})
	if err != nil {
		return nil, err
	}
	res := newResult(out, e.w)
	if opt.Trace && opt.GridRows == 0 && opt.GridCols == 0 {
		// The grid shape was derived (cluster.ClosestSquare), so it was
		// a decision of this library's, not the caller's: record it with
		// the factorizations it rejected. A pinned dimension leaves no
		// freedom (the other divides out), so nothing is recorded — there
		// were no alternatives.
		res.Decisions = append(res.Decisions, decis.Decision{
			Kind: decis.KindGrid, Ranks: int64(e.lay.ranks),
			Choice:       decis.GridChoice(e.lay.pr, e.lay.pc),
			Alternatives: gridAlternatives(e.lay.ranks, e.lay.pr, e.lay.pc),
		})
	}
	return res, nil
}

func (e *engine2D) searchBatch(sources []int64, opt Options) (*BatchResult, error) {
	mode, err := resolveDirection(opt)
	if err != nil {
		return nil, err
	}
	e.w.Reset()
	out, err := bfs2d.RunBatch(e.w, e.grid, e.dg, sources, bfs2d.Options{
		Threads: e.lay.threads, Kernel: spmat.KernelAuto, Vector: bfs2d.Dist2D,
		Direction: mode, Price: e.price, Trace: opt.Trace, Arena: &e.arena,
	})
	if err != nil {
		return nil, err
	}
	return newBatchResult(out, e.w), nil
}

func (e *engine2D) close() { e.arena.Close() }

// engineBase drives the Section 6 comparator codes (Graph 500 reference
// and PBGL) through their one level loop, baseline.Run. They are
// top-down by construction and keep no scratch between searches, so the
// engine holds only the distribution and the world.
type engineBase struct {
	lay   layout
	g     *Graph
	dg    *bfs1d.Graph
	w     *cluster.World
	price cluster.Pricer
}

func (e *engineBase) boundTo() *Graph { return e.g }

func (e *engineBase) rebind(g *Graph) error {
	dg, err := bfs1d.FromCSR(g.csr, e.lay.ranks)
	if err != nil {
		return err
	}
	distributions.Add(1)
	e.g, e.dg = g, dg
	return nil
}

func (e *engineBase) search(source int64, opt Options) (*Result, error) {
	if _, err := resolveDirection(opt); err != nil {
		return nil, err
	}
	e.w.Reset()
	code := baseline.PBGL
	if e.lay.algo == Reference {
		code = baseline.Reference
	}
	return newResult(baseline.Run(e.w, e.dg, source, e.price, code), e.w), nil
}

func (e *engineBase) searchBatch(sources []int64, opt Options) (*BatchResult, error) {
	return sequentialBatch(e, sources, opt)
}

func (e *engineBase) close() {}

// sequentialBatch is the per-source path: the fallback for engines
// without a bit-parallel path, and the route BFSBatch takes for any
// one-source chunk. Each source runs its own search, the whole-batch
// statistics are summed, and per-source times stay the searches' own —
// there is no amortization to report. The unique-edge count still
// applies the shared-scan accounting rule (each edge incident to the
// union of the reached sets counted once), so MachineTEPS compares
// fairly against the batched engines. One search's union is its own
// reached set, so a one-source batch takes the search's TraversedEdges
// and its level profile as they are.
func sequentialBatch(e engine, sources []int64, opt Options) (*BatchResult, error) {
	br := &BatchResult{Sources: append([]int64(nil), sources...)}
	var reached []bool
	if len(sources) > 1 {
		reached = make([]bool, e.boundTo().NumVerts())
	}
	for _, src := range sources {
		res, err := e.search(src, opt)
		if err != nil {
			return nil, err
		}
		br.Results = append(br.Results, res)
		br.BatchLevels += res.Levels
		br.ScannedTopDown += res.ScannedTopDown
		br.ScannedBottomUp += res.ScannedBottomUp
		br.SimTime += res.SimTime
		br.CommTime += res.CommTime
		br.SentWords += res.SentWords
		br.RecvWords += res.RecvWords
		mergePhases(&br.CommByPhase, res.CommByPhase)
		if reached == nil {
			continue
		}
		for v, d := range res.Dist {
			if d != Unreached {
				reached[v] = true
			}
		}
	}
	if reached == nil {
		res := br.Results[0]
		br.UniqueTraversedEdges = res.TraversedEdges
		br.LevelFrontier, br.LevelScanned = res.LevelFrontier, res.LevelScanned
		br.LevelBottomUp, br.LevelCommWords = res.LevelBottomUp, res.LevelCommWords
		return br, nil
	}
	g := e.boundTo()
	var adj int64
	for v, ok := range reached {
		if ok {
			adj += g.Degree(int64(v))
		}
	}
	br.UniqueTraversedEdges = adj / 2
	return br, nil
}
