package serve

import (
	"sort"
	"sync"

	"repro/internal/graph500"
)

// metricsWindow bounds the per-class sample window the percentile and
// TEPS statistics are computed over, so a long-running server's
// metrics stay O(1) in served traffic. Counters (served, rejected,
// occupancy means, cache hits) are lifetime.
const metricsWindow = 4096

// sample is one served query's metric record.
type sample struct {
	waitNs    float64 // wall-clock queue wait
	amortNs   float64 // simulated machine seconds (the batch share), in ns
	occupancy int
	run       graph500.Run
}

// classAcc accumulates one SLO class's counters and sample window.
type classAcc struct {
	served         int64
	rejected       map[string]int64
	internalErrors int64
	occSum         int64
	window         []sample
	next           int
}

// graphAcc accumulates one registered graph's lifetime counters.
type graphAcc struct {
	queries        int64
	batches        int64
	occSum         int64
	cacheHits      int64
	cacheMisses    int64
	coalesced      int64
	deadlineShed   int64
	internalErrors int64
}

// Metrics is the server's accounting, per SLO class (lifetime
// served/rejected counters, windowed wall-clock queue-wait and
// simulated amortized-latency percentiles, Graph 500 harmonic-mean
// TEPS) and per registered graph (batches, occupancy, cache
// hit/miss/coalesce, deadline sheds). Safe for concurrent use.
type Metrics struct {
	mu      sync.Mutex
	queries int64
	batches int64
	occSum  int64
	classes map[string]*classAcc
	graphs  map[string]*graphAcc
}

// NewMetrics returns an empty accumulator.
func NewMetrics() *Metrics {
	return &Metrics{
		classes: make(map[string]*classAcc),
		graphs:  make(map[string]*graphAcc),
	}
}

func (m *Metrics) class(name string) *classAcc {
	c := m.classes[name]
	if c == nil {
		c = &classAcc{rejected: make(map[string]int64)}
		m.classes[name] = c
	}
	return c
}

func (m *Metrics) graph(id string) *graphAcc {
	g := m.graphs[id]
	if g == nil {
		g = &graphAcc{}
		m.graphs[id] = g
	}
	return g
}

// EnsureGraph pre-registers a graph so it appears in snapshots before
// any traffic reaches it.
func (m *Metrics) EnsureGraph(id string) {
	m.mu.Lock()
	m.graph(id)
	m.mu.Unlock()
}

// RecordBatch records one dispatched batch's occupancy on graph.
func (m *Metrics) RecordBatch(graph string, occupancy int) {
	m.mu.Lock()
	m.batches++
	m.occSum += int64(occupancy)
	g := m.graph(graph)
	g.batches++
	g.occSum += int64(occupancy)
	m.mu.Unlock()
}

// RecordCache records one result-cache lookup on graph.
func (m *Metrics) RecordCache(graph string, hit bool) {
	m.mu.Lock()
	if hit {
		m.graph(graph).cacheHits++
	} else {
		m.graph(graph).cacheMisses++
	}
	m.mu.Unlock()
}

// RecordCoalesce records one query coalescing onto an in-queue
// duplicate on graph.
func (m *Metrics) RecordCoalesce(graph string) {
	m.mu.Lock()
	m.graph(graph).coalesced++
	m.mu.Unlock()
}

// Record records one served query.
func (m *Metrics) Record(resp *Response) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.queries++
	m.graph(resp.Graph).queries++
	c := m.class(resp.Class)
	c.served++
	c.occSum += int64(resp.Occupancy)
	s := sample{
		waitNs:    float64(resp.QueueWait.Nanoseconds()),
		amortNs:   resp.SimTime * 1e9,
		occupancy: resp.Occupancy,
		run: graph500.Run{
			Source: resp.Source, Time: resp.SimTime,
			Edges: resp.TraversedEdges, Levels: resp.Levels,
		},
	}
	if len(c.window) < metricsWindow {
		c.window = append(c.window, s)
	} else {
		c.window[c.next] = s
		c.next = (c.next + 1) % metricsWindow
	}
}

// RecordReject counts one rejection for class (possibly "" when the
// class itself was unknown) on graph (possibly "" or unregistered when
// the graph was unknown) with the given reason.
func (m *Metrics) RecordReject(graph, class, reason string) {
	m.mu.Lock()
	m.class(class).rejected[reason]++
	if reason == RejectDeadline {
		m.graph(graph).deadlineShed++
	}
	m.mu.Unlock()
}

// RecordError counts one internal-error response for class on graph: a
// query that was admitted, dispatched, and then answered with an
// engine error instead of a result. These responses never enter the
// latency sample window (they carried no result to sample), so without
// this counter they would vanish from the metrics entirely.
func (m *Metrics) RecordError(graph, class string) {
	m.mu.Lock()
	m.class(class).internalErrors++
	m.graph(graph).internalErrors++
	m.mu.Unlock()
}

// ClassSnapshot is one SLO class's reported metrics. Percentiles and
// TEPS are over the class's recent sample window; counters are
// lifetime.
type ClassSnapshot struct {
	Class    string           `json:"class"`
	Served   int64            `json:"served"`
	Rejected map[string]int64 `json:"rejected,omitempty"`
	// InternalErrors counts admitted queries answered with an engine
	// error (no result); they are excluded from Served and from the
	// latency windows.
	InternalErrors int64 `json:"internal_errors,omitempty"`

	MeanOccupancy float64 `json:"mean_occupancy"`

	// QueueWait* are wall-clock (server Clock) nanoseconds from
	// admission to the batch's session acquisition.
	QueueWaitP50Ns float64 `json:"queue_wait_p50_ns"`
	QueueWaitP95Ns float64 `json:"queue_wait_p95_ns"`
	QueueWaitP99Ns float64 `json:"queue_wait_p99_ns"`

	// AmortizedSim* are simulated machine seconds, in nanoseconds: each
	// query's share of its batch's α-β-model time (Response.SimTime),
	// not a wall-clock latency.
	AmortizedSimP50Ns float64 `json:"amortized_sim_latency_p50_ns"`
	AmortizedSimP95Ns float64 `json:"amortized_sim_latency_p95_ns"`
	AmortizedSimP99Ns float64 `json:"amortized_sim_latency_p99_ns"`

	HarmonicMeanTEPS float64 `json:"harmonic_mean_teps"`
}

// GraphSnapshot is one registered graph's reported metrics. Counters
// are lifetime; QueueLen, QueueDelayEstimateNs, CacheEntries, and
// CacheBytes are the live values at snapshot time (filled by
// Server.Metrics). CacheBytes is the resident planes' vector
// footprint, 4·(len(Dist)+len(Parent)) summed over the cache's entries
// (a cached plane holds its vectors at 32 bits a vertex).
type GraphSnapshot struct {
	Graph         string  `json:"graph"`
	Queries       int64   `json:"queries"`
	Batches       int64   `json:"batches"`
	MeanOccupancy float64 `json:"mean_occupancy"`

	CacheHits      int64   `json:"cache_hits"`
	CacheMisses    int64   `json:"cache_misses"`
	CacheHitRate   float64 `json:"cache_hit_rate"`
	CacheEntries   int     `json:"cache_entries"`
	CacheBytes     int64   `json:"cache_bytes"`
	Coalesced      int64   `json:"coalesced"`
	DeadlineShed   int64   `json:"deadline_shed"`
	InternalErrors int64   `json:"internal_errors,omitempty"`

	QueueLen int `json:"queue_len"`
	// QueueDelayEstimateNs is the server's current backpressure
	// estimate for this graph: how long a query admitted now would
	// wait, the figure queue_full rejections surface as Retry-After.
	QueueDelayEstimateNs int64 `json:"queue_delay_estimate_ns"`
}

// Snapshot is the whole server's reported metrics.
type Snapshot struct {
	Queries       int64           `json:"queries"`
	Batches       int64           `json:"batches"`
	MeanOccupancy float64         `json:"mean_occupancy"`
	Draining      bool            `json:"draining"`
	Classes       []ClassSnapshot `json:"classes"`
	Graphs        []GraphSnapshot `json:"graphs,omitempty"`
}

// Snapshot summarizes the current state; classes and graphs sort by
// name.
func (m *Metrics) Snapshot(draining bool) Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	snap := Snapshot{Queries: m.queries, Batches: m.batches, Draining: draining}
	if m.batches > 0 {
		snap.MeanOccupancy = float64(m.occSum) / float64(m.batches)
	}
	byClass := make(map[string][]graph500.Run, len(m.classes))
	for name, c := range m.classes {
		cs := ClassSnapshot{Class: name, Served: c.served, InternalErrors: c.internalErrors}
		if len(c.rejected) > 0 {
			cs.Rejected = make(map[string]int64, len(c.rejected))
			for reason, n := range c.rejected {
				cs.Rejected[reason] = n
			}
		}
		if c.served > 0 {
			cs.MeanOccupancy = float64(c.occSum) / float64(c.served)
		}
		if len(c.window) > 0 {
			waits := make([]float64, len(c.window))
			amorts := make([]float64, len(c.window))
			runs := make([]graph500.Run, len(c.window))
			for i, s := range c.window {
				waits[i], amorts[i], runs[i] = s.waitNs, s.amortNs, s.run
			}
			cs.QueueWaitP50Ns = graph500.Percentile(waits, 50)
			cs.QueueWaitP95Ns = graph500.Percentile(waits, 95)
			cs.QueueWaitP99Ns = graph500.Percentile(waits, 99)
			cs.AmortizedSimP50Ns = graph500.Percentile(amorts, 50)
			cs.AmortizedSimP95Ns = graph500.Percentile(amorts, 95)
			cs.AmortizedSimP99Ns = graph500.Percentile(amorts, 99)
			byClass[name] = runs
		}
		snap.Classes = append(snap.Classes, cs)
	}
	for name, st := range graph500.SummarizeByClass(byClass) {
		for i := range snap.Classes {
			if snap.Classes[i].Class == name {
				snap.Classes[i].HarmonicMeanTEPS = st.HarmonicMeanTEPS
			}
		}
	}
	sort.Slice(snap.Classes, func(i, j int) bool {
		return snap.Classes[i].Class < snap.Classes[j].Class
	})
	for id, g := range m.graphs {
		gs := GraphSnapshot{
			Graph: id, Queries: g.queries, Batches: g.batches,
			CacheHits: g.cacheHits, CacheMisses: g.cacheMisses,
			Coalesced: g.coalesced, DeadlineShed: g.deadlineShed,
			InternalErrors: g.internalErrors,
		}
		if g.batches > 0 {
			gs.MeanOccupancy = float64(g.occSum) / float64(g.batches)
		}
		if lookups := g.cacheHits + g.cacheMisses; lookups > 0 {
			gs.CacheHitRate = float64(g.cacheHits) / float64(lookups)
		}
		snap.Graphs = append(snap.Graphs, gs)
	}
	sort.Slice(snap.Graphs, func(i, j int) bool {
		return snap.Graphs[i].Graph < snap.Graphs[j].Graph
	})
	return snap
}
