package main

import (
	"fmt"
	"runtime"
	"time"

	pbfs "repro"
)

// kind is how a workload drives the program under test.
type kind int

const (
	libSearch kind = iota // closed loop, one caller, op = Session.Search
	libBatch              // closed loop, one caller, op = one 64-source Session.BFSBatch
	serveCold             // open loop, in-process SubmitQuery, cache cannot help
	serveHTTP             // closed loop over loopback HTTP, cache mostly hits
)

// workload is one set of inputs the benchmark runs. The why of each
// is the reason it exists beside the others: which layers carry it and
// which change must therefore show on it and nowhere else.
type workload struct {
	name string
	why  string
	kind kind
	web  bool         // library workloads: the crawl instead of R-MAT
	opt  pbfs.Options // library workloads: the engine under test
}

var workloads = []workload{
	{
		name: "rmat-1d",
		why:  "Algorithm 2 as published: top-down 1D on R-MAT, push scan and Alltoallv pack/unpack do the work; pull kernels, dirheur and smp are idle",
		kind: libSearch,
		opt:  pbfs.Options{Algorithm: pbfs.OneDFlat, Ranks: 16, Machine: "hopper", Direction: pbfs.TopDownOnly},
	},
	{
		name: "rmat-2d",
		why:  "the headline 2D hybrid with direction optimisation on R-MAT: spmat pull, bitmap allgather on grid sub-communicators and smp pools dominate",
		kind: libSearch,
		opt:  pbfs.Options{Algorithm: pbfs.TwoDHybrid, Ranks: 16, Threads: 4, Machine: "hopper"},
	},
	{
		name: "web-2d",
		why:  "a crawl of about a hundred levels with tiny frontiers: cluster rendezvous and per-level fixed costs dominate, kernels are idle",
		kind: libSearch,
		web:  true,
		opt:  pbfs.Options{Algorithm: pbfs.TwoDFlat, Ranks: 16, Machine: "hopper"},
	},
	{
		name: "rmat-batch",
		why:  "the same bfs1d and cluster layers used the other way: one mask-word scan answers 64 searches, so a single-search gain that costs the MS-BFS path shows here",
		kind: libBatch,
		opt:  pbfs.Options{Algorithm: pbfs.OneDFlat, Ranks: 16, Machine: "hopper"},
	},
	{
		name: "serve-cold",
		why:  "independent users at a fixed Poisson rate against a server whose cache cannot help: admission, queue, former, session pool and BFSBatch do all the work",
		kind: serveCold,
	},
	{
		name: "serve-http",
		why:  "the same server behind HTTP with Zipf keys that mostly hit the cache: cache, coalescing and JSON encoding of a 2^16-entry vector carry the median, the kernel only the tail",
		kind: serveHTTP,
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// Sizes of the real run and of -smoke (which only proves the public
// surfaces still answer).
const (
	searchKeys    = 64   // Graph 500 search keys per library workload
	coldPool      = 256  // serve-cold sources per graph: twice the cache, so no repeat is still cached
	hotPool       = 4096 // serve-http Zipf support per graph
	coldRate      = 40   // serve-cold arrivals per second
	lateLimitMs   = 100  // serve-cold latency limit, judged on p90
	deadlineAfter = 250 * time.Millisecond
	coldSetups    = 3 // set-ups per run; setup_s is their median
)

// env is what one run is given.
type env struct {
	seed   uint64
	window time.Duration // the timed window of the untraced pass
	smoke  bool
}

func (e env) rmatScale() int {
	if e.smoke {
		return 10
	}
	return 16
}

// webVerts is the crawl's size: 2^16 searched directly, 2^14 served.
func (e env) webVerts(served bool) int64 {
	switch {
	case e.smoke:
		return 1 << 10
	case served:
		return 1 << 14
	}
	return 1 << 16
}

// Graph seeds are streams of the run seed, one per graph family.
func (e env) rmatSeed() uint64 { return subSeed(e.seed, 100) }
func (e env) webSeed() uint64  { return subSeed(e.seed, 101) }

// outcome is what one pass over one workload produced.
type outcome struct {
	// failed counts ops that were refused, errored or answered
	// wrongly; wrong counts the last kind alone.
	attempted, failed, wrong int
	metrics                  map[string]float64
	// notes are shown in the report but are not declared metrics:
	// sample counts behind the percentiles, host drift of this pass.
	notes map[string]float64
	spans []span
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, notes: map[string]float64{}}
}

// window is what one timed window measured, in the terms every kind
// of workload shares.
type window struct {
	wall      time.Duration
	latencies []float64 // ms, one per op that was answered
	ops       int       // attempted
	sources   int       // BFS answers returned
	answers   []answer
	refused   map[int]bool // ops the program refused or failed outright
	before    memMark
	after     memMark
	heapMiB   float64
	spinPre   float64
	spinPost  float64
}

// score checks a window's answers and turns it into the end-to-end
// metrics.
func (w *window) score(v *verifier, out *outcome) {
	bad := v.badOps(w.answers)
	out.wrong += len(bad)
	for op := range w.refused {
		bad[op] = true
	}
	correct := 0
	for _, a := range w.answers {
		if !bad[a.op] {
			correct++
		}
	}
	out.attempted += w.ops
	out.failed += len(bad)
	p50, _ := percentile(w.latencies, 50)
	p90, beyond := percentile(w.latencies, 90)
	out.metrics["op_ms_p50"] = p50
	out.metrics["op_ms_p90"] = p90
	out.metrics["sources_per_s"] = float64(correct) / w.wall.Seconds()
	out.metrics["heap_mb"] = w.heapMiB
	if w.sources > 0 {
		out.metrics["alloc_kb_per_source"] = float64(w.after.totalAlloc-w.before.totalAlloc) / 1024 / float64(w.sources)
	}
	out.notes["samples"] = float64(len(w.latencies))
	out.notes["samples_beyond_p90"] = float64(beyond)
	out.notes["spin_mops"] = w.spinPre
	out.notes["spin_drift_share"] = drift(w.spinPre, w.spinPost)
}

// measure brackets body — one timed window — with the host yardstick
// and the allocator marks.
func measure(body func(w *window)) *window {
	w := &window{refused: map[int]bool{}}
	w.spinPre = spinMops()
	w.before = markMem()
	start := time.Now()
	body(w)
	w.wall = time.Since(start)
	w.after = markMem()
	w.heapMiB = liveHeapMiB()
	w.spinPost = spinMops()
	return w
}

// coldMedian sets up coldSetups times from nothing, closing each state
// before the next is built, keeps the last for the window and returns
// the median set-up time.
func coldMedian[T any](setup func() (T, error), closeState func(T)) (T, float64, error) {
	var secs []float64
	var st T
	for i := 0; i < coldSetups; i++ {
		if i > 0 {
			closeState(st)
			var zero T
			st = zero
			runtime.GC()
		}
		start := time.Now()
		next, err := setup()
		if err != nil {
			return st, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
		st = next
	}
	return st, median(secs), nil
}

// addTraced scores the traced pass's window and fills in what every
// traced pass reports about itself. plain and spanned are the
// latencies of the ops without and with a span around them; the
// window's end-to-end values go to the notes.
func (out *outcome) addTraced(v *verifier, win *window, plain, spanned []float64) {
	scored := newOutcome()
	win.score(v, scored)
	out.attempted, out.failed, out.wrong = scored.attempted, scored.failed, scored.wrong
	for k, val := range scored.metrics {
		out.notes[k] = val
	}
	m := out.metrics
	m["fail_share"] = float64(out.failed) / float64(out.attempted)
	if base := median(plain); base > 0 {
		m["trace.overhead_share"] = median(spanned)/base - 1
	}
	m["runtime.gc_cpu_share"] = gcShare(win.before, win.after)
	m["host.spin_mops"] = win.spinPre
	m["host.spin_drift_share"] = drift(win.spinPre, win.spinPost)
}
