package main

import (
	"fmt"
	"time"

	pbfs "repro"
)

// libState is a library workload ready to answer: the graph, its
// search keys and a session whose engine is built.
type libState struct {
	g    *pbfs.Graph
	keys []int64
	sess *pbfs.Session
}

func (st *libState) close() { st.sess.Close() }

func (w *workload) newGraph(e env) (*pbfs.Graph, error) {
	if w.web {
		return pbfs.NewWebCrawlGraph(e.webVerts(false), e.webSeed())
	}
	return pbfs.NewRMATGraph(e.rmatScale(), 16, e.rmatSeed())
}

// op makes one API call: a Search from the i-th key in rotation, or
// one batch over every key. It returns the searches answered.
func (w *workload) op(st *libState, i int, opt pbfs.Options) ([]*pbfs.Result, error) {
	if w.kind == libBatch {
		br, err := st.sess.BFSBatch(st.g, st.keys, opt)
		if err != nil {
			return nil, err
		}
		return br.Results, nil
	}
	res, err := st.sess.Search(st.g, st.keys[i%len(st.keys)], opt)
	if err != nil {
		return nil, err
	}
	return []*pbfs.Result{res}, nil
}

// coldSetup pays everything a caller pays before the first answer:
// generate, CSR, search keys, engine build inside the first op.
func (w *workload) coldSetup(e env, tr *tracer, parent int) (*libState, error) {
	st := &libState{sess: pbfs.NewSession()}
	var err error
	tr.timed(parent, "new_graph", "pbfs", func() { st.g, err = w.newGraph(e) })
	if err != nil {
		return nil, fmt.Errorf("%s: graph: %w", w.name, err)
	}
	tr.timed(parent, "sources", "pbfs", func() { st.keys = st.g.Sources(searchKeys, subSeed(e.seed, 1)) })
	if len(st.keys) == 0 {
		return nil, fmt.Errorf("%s: graph has no usable search key", w.name)
	}
	tr.timed(parent, "first_op", "pbfs", func() { _, err = w.op(st, 0, w.opt) })
	if err != nil {
		return nil, fmt.Errorf("%s: first op: %w", w.name, err)
	}
	return st, nil
}

// warmUp runs every key once (one batch for libBatch) with opt and
// returns what came back: the caches are filled, and because the set
// of searches is fixed the simulated figures taken from it repeat
// exactly for a seed.
func (w *workload) warmUp(st *libState, opt pbfs.Options) ([]*pbfs.Result, []float64, error) {
	n := len(st.keys)
	if w.kind == libBatch {
		n = 1
	}
	var all []*pbfs.Result
	var ms []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		res, err := w.op(st, i, opt)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: warm-up: %w", w.name, err)
		}
		ms = append(ms, msSince(start))
		all = append(all, res...)
	}
	return all, ms, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// recordOp books one library op into the window: its latency and the
// checksum of every search it answered, or the refusal.
func (win *window) recordOp(ms float64, res []*pbfs.Result, err error) {
	op := win.ops
	win.ops++
	if err != nil {
		win.refused[op] = true
		return
	}
	win.latencies = append(win.latencies, ms)
	win.sources += len(res)
	for _, r := range res {
		win.answers = append(win.answers, answer{op: op, source: r.Source, sum: checksum(r.Dist, r.Levels)})
	}
}

// closedLoop is the timed window of a library workload: one caller,
// the next op sent when the previous one returned, for dur.
func (w *workload) closedLoop(st *libState, dur time.Duration) *window {
	return measure(func(win *window) {
		deadline := time.Now().Add(dur)
		for i := 0; time.Now().Before(deadline); i++ {
			start := time.Now()
			res, err := w.op(st, i, w.opt)
			win.recordOp(msSince(start), res, err)
		}
	})
}

// tracedLoop is the traced pass's window. Every key is asked through
// the session twice — once plainly, once with a span around the call —
// and each session call is followed by the same search made straight
// into the level-loop driver, which works on its own copy of the
// distributed graph. Session and driver therefore always alternate,
// each call finds the caches as the other copy left them, and which
// session call goes first swaps from key to key: host drift and cache
// warmth fall on all three kinds alike, so their medians can be
// subtracted. Only the session calls are ops; it returns their
// latencies (plain, spanned) and the driver's (direct).
func (w *workload) tracedLoop(st *libState, ls *layerState, dur time.Duration, tr *tracer) (win *window, plain, spanned, direct []float64, err error) {
	layer, _ := ls.levelLoop(w)
	win = measure(func(win *window) {
		deadline := time.Now().Add(dur)
		for round := 0; time.Now().Before(deadline) && err == nil; round++ {
			for k := 0; k < 2 && err == nil; k++ {
				var t *tracer
				if (round+k)%2 == 1 {
					t = tr
				}
				id := t.begin(0, "op", "pbfs", win.ops)
				start := time.Now()
				res, opErr := w.op(st, round, w.opt)
				ms := msSince(start)
				t.end(id)
				win.recordOp(ms, res, opErr)
				switch {
				case opErr != nil:
				case t == nil:
					plain = append(plain, ms)
				default:
					spanned = append(spanned, ms)
				}
				id = tr.begin(0, "run", layer, round)
				start = time.Now()
				err = ls.runDirect(w, st.keys, round)
				direct = append(direct, msSince(start))
				tr.end(id)
			}
		}
	})
	return win, plain, spanned, direct, err
}

// runLibrary is the untraced pass of a library workload.
func (w *workload) runLibrary(e env) (*outcome, error) {
	st, setup, err := coldMedian(func() (*libState, error) { return w.coldSetup(e, nil, 0) }, (*libState).close)
	if err != nil {
		return nil, err
	}
	defer st.close()
	if _, _, err := w.warmUp(st, w.opt); err != nil {
		return nil, err
	}
	out := newOutcome()
	out.metrics["setup_s"] = setup
	w.closedLoop(st, e.window).score(newVerifier(st.g), out)
	return out, nil
}

// runLibraryTraced is the traced pass: the set-up chain layer by
// layer, the counts, the traced window, then the probes.
func (w *workload) runLibraryTraced(e env) (*outcome, error) {
	out := newOutcome()
	m := out.metrics
	tr := newTracer()

	root := tr.begin(0, "setup", "benchmark", 0)
	start := time.Now()
	st, err := w.coldSetup(e, tr, root)
	tr.end(root)
	if err != nil {
		return nil, err
	}
	defer st.close()
	out.notes["setup_s"] = time.Since(start).Seconds()
	firstOp := spanSeconds(tr, "first_op")

	layers, err := w.layerSetup(e, tr)
	if err != nil {
		return nil, err
	}
	defer layers.close()
	for k, v := range layers.seconds {
		m[k] = v
	}

	// Counts: every key once with Options.Trace, so the per-level
	// direction record is there to read.
	traceOpt := w.opt
	traceOpt.Trace = true
	counted, warmMs, err := w.warmUp(st, traceOpt)
	if err != nil {
		return nil, err
	}
	var batchDirs []bool
	if w.kind == libBatch {
		br, err := st.sess.BFSBatch(st.g, st.keys, traceOpt)
		if err != nil {
			return nil, fmt.Errorf("%s: traced batch: %w", w.name, err)
		}
		batchDirs = br.LevelBottomUp
		addBatchCounts(m, br)
	} else {
		addSearchCounts(m, counted)
	}
	m["dirheur.bottomup_level_share"] = bottomUpShare(counted, batchDirs)
	var teps []float64
	for _, r := range counted {
		teps = append(teps, r.TEPS()/1e6)
	}
	m["sim_mteps"] = harmonicMean(teps)
	m["pbfs.engine_build_s"] = firstOp - median(warmMs)/1e3

	win, plain, spanned, direct, err := w.tracedLoop(st, layers, e.window, tr)
	if err != nil {
		return nil, err
	}
	out.addTraced(newVerifier(st.g), win, plain, spanned)
	_, runMetric := layers.levelLoop(w)
	m[runMetric] = median(direct)
	m["pbfs.assemble_ms_p50"] = median(plain) - median(direct)
	layers.replayKernels(st, tr, m)
	hostProbes(st.g, st.keys, tr, m, e.smoke)
	out.spans = tr.spans
	return out, nil
}

// spanSeconds returns the duration of the first span with that name.
func spanSeconds(tr *tracer, name string) float64 {
	for _, s := range tr.spans {
		if s.Name == name {
			return float64(s.EndNs-s.StartNs) / 1e9
		}
	}
	return 0
}

// addSearchCounts averages the per-search counts and the simulated
// clock's split over the counted searches.
func addSearchCounts(m map[string]float64, rs []*pbfs.Result) {
	n := float64(len(rs))
	var levels, scanned, traversed, words, sim, comm float64
	phases := map[string]float64{}
	for _, r := range rs {
		levels += float64(r.Levels)
		scanned += float64(r.ScannedTopDown + r.ScannedBottomUp)
		traversed += float64(r.TraversedEdges)
		words += float64(r.SentWords)
		sim += r.SimTime
		comm += r.CommTime
		for tag, s := range r.CommByPhase {
			phases[tag] += s
		}
	}
	setCounts(m, n, levels, scanned, traversed, words, sim, comm, phases)
}

// addBatchCounts does the same for one batch, per source answered.
func addBatchCounts(m map[string]float64, br *pbfs.BatchResult) {
	var traversed float64
	for _, r := range br.Results {
		traversed += float64(r.TraversedEdges)
	}
	setCounts(m, float64(len(br.Results)), float64(br.BatchLevels),
		float64(br.ScannedTopDown+br.ScannedBottomUp), traversed,
		float64(br.SentWords), br.SimTime, br.CommTime, br.CommByPhase)
}

func setCounts(m map[string]float64, n, levels, scanned, traversed, words, sim, comm float64, phases map[string]float64) {
	m["pbfs.levels_per_source"] = levels / n
	m["pbfs.scanned_edges_per_source"] = scanned / n
	if traversed > 0 {
		m["pbfs.scan_ratio"] = scanned / (2 * traversed)
	}
	m["cluster.words_per_source"] = words / n
	m["cluster.sim_s_per_source"] = sim / n
	if sim > 0 {
		m["cluster.sim_comm_share"] = comm / sim
	}
	for _, tag := range []string{"a2a", "expand", "fold", "transpose", "bitmap", "allreduce"} {
		m["cluster.sim_"+tag+"_s"] = phases[tag] / n
	}
}

// bottomUpShare is the share of executed levels that ran bottom-up.
func bottomUpShare(rs []*pbfs.Result, batchDirs []bool) float64 {
	dirs := batchDirs
	for _, r := range rs {
		dirs = append(dirs, r.LevelBottomUp...)
	}
	if len(dirs) == 0 {
		return 0
	}
	up := 0
	for _, d := range dirs {
		if d {
			up++
		}
	}
	return float64(up) / float64(len(dirs))
}
