package serve

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	pbfs "repro"
)

// GraphConfig registers one named graph with the server: its own warm
// session pool, queue, former, and result cache, so batches never mix
// graphs and each graph's traffic amortizes independently.
type GraphConfig struct {
	// ID is the graph's registry key, the Query.GraphID that routes to
	// it. Required and unique.
	ID string
	// Graph is the served graph; Options is the engine configuration
	// every batch on it runs under (the layout fields select the
	// cached engine each pool session builds once).
	Graph   *pbfs.Graph
	Options pbfs.Options
	// Sessions is this graph's pbfs.SessionPool size: how many of its
	// batches may execute concurrently (default Config.Sessions).
	Sessions int
}

// Config configures a Server.
type Config struct {
	// Graphs is the v1 registry: the named graphs the server routes
	// queries across. The first entry is the default graph (the one an
	// empty Query.GraphID resolves to).
	Graphs []GraphConfig

	// BatchMax is the dispatch width (clamped to [1, pbfs.BatchWidth]).
	// A batch is cut whenever a pooled session is free, so MaxWait
	// delays no dispatch: its one reader is the floor of the queue_full
	// Retry-After hint (default 2ms).
	BatchMax int
	MaxWait  time.Duration

	// QueueDepth bounds each graph's pending queue; admission beyond
	// it rejects with queue_full (default 4 * BatchMax).
	QueueDepth int

	// Policy orders dispatch (default FCFS).
	Policy Policy

	// Sessions is the default per-graph session pool size (default 1).
	Sessions int

	// CacheSize bounds each graph's hot-source result cache (LRU
	// entries). Zero means DefaultCacheSize; negative disables caching.
	CacheSize int

	// Classes lists the accepted SLO classes (default DefaultClasses).
	Classes []Class

	// Clock stamps admissions, queue waits, and completions (default
	// Wall). The serving loops run on real goroutines regardless; drive
	// a FakeClock through a Harness for deterministic batching.
	Clock Clock
}

// Server is the batching BFS query server: admitted queries flow
// cache → queue → former → session pool on their target graph, every
// batch is one bit-parallel MS-BFS traversal of a single graph, and
// each rider receives its own distance vector plus its amortized share
// of the batch's clock.
type Server struct {
	cfg     Config
	classes map[string]Class
	clock   Clock
	metrics *Metrics

	workers map[string]*graphWorker
	order   []string // registration order; order[0] is the default graph

	ids      atomic.Uint64
	batchIDs atomic.Uint64
	draining atomic.Bool
	stopped  chan struct{}
}

// New validates cfg, applies defaults, warms every graph's session
// pool, and starts the serving loops.
func New(cfg Config) (*Server, error) {
	return newServer(cfg, true)
}

// newServer builds the server; start=false skips the forming loops
// (the Harness pumps batches synchronously instead).
func newServer(cfg Config, start bool) (*Server, error) {
	if len(cfg.Graphs) == 0 {
		return nil, fmt.Errorf("serve: no graphs registered")
	}
	if cfg.BatchMax < 1 || cfg.BatchMax > pbfs.BatchWidth {
		cfg.BatchMax = pbfs.BatchWidth
	}
	if cfg.MaxWait <= 0 {
		cfg.MaxWait = 2 * time.Millisecond
	}
	if cfg.QueueDepth < 1 {
		cfg.QueueDepth = 4 * cfg.BatchMax
	}
	if cfg.Policy == nil {
		cfg.Policy = FCFS{}
	}
	if cfg.Sessions < 1 {
		cfg.Sessions = 1
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = DefaultCacheSize
	}
	if len(cfg.Classes) == 0 {
		cfg.Classes = DefaultClasses()
	}
	if cfg.Clock == nil {
		cfg.Clock = Wall
	}
	s := &Server{
		cfg:     cfg,
		classes: make(map[string]Class, len(cfg.Classes)),
		clock:   cfg.Clock,
		metrics: NewMetrics(),
		workers: make(map[string]*graphWorker, len(cfg.Graphs)),
		stopped: make(chan struct{}),
	}
	for _, c := range cfg.Classes {
		s.classes[c.Name] = c
	}
	for _, gc := range cfg.Graphs {
		if gc.ID == "" {
			return nil, fmt.Errorf("serve: graph with empty ID")
		}
		if _, dup := s.workers[gc.ID]; dup {
			return nil, fmt.Errorf("serve: duplicate graph ID %q", gc.ID)
		}
		if gc.Graph == nil || gc.Graph.NumVerts() < 1 {
			return nil, fmt.Errorf("serve: graph %q is nil or empty", gc.ID)
		}
		if gc.Sessions < 1 {
			gc.Sessions = cfg.Sessions
		}
		w := newGraphWorker(s, gc, cfg.BatchMax, cfg.QueueDepth, cfg.Policy, cfg.CacheSize)
		// Warm every pool session with a one-source batch:
		// configuration errors (unknown machine, unfactorable grid)
		// surface here instead of on the first query, and each session
		// pays its one graph distribution before traffic arrives. A
		// one-source batch runs the single search, so a two-source
		// batch then grows the bit-parallel arenas too (skipped on
		// graphs too small to offer two sources). Get cycles the pool
		// FIFO, so the loop visits every member exactly once.
		var err error
		pair := gc.Graph.Sources(2, 0)
		for i := 0; i < gc.Sessions && err == nil; i++ {
			sess := w.pool.Get()
			_, err = sess.BFSBatch(gc.Graph, []int64{0}, gc.Options)
			if err == nil && len(pair) == 2 {
				_, err = sess.BFSBatch(gc.Graph, pair, gc.Options)
			}
			w.pool.Put(sess)
		}
		if err != nil {
			w.pool.Close()
			for _, id := range s.order {
				s.workers[id].pool.Close()
			}
			return nil, fmt.Errorf("serve: graph %q options rejected: %w", gc.ID, err)
		}
		s.workers[gc.ID] = w
		s.order = append(s.order, gc.ID)
		s.metrics.EnsureGraph(gc.ID)
	}
	if start {
		for _, id := range s.order {
			s.workers[id].start()
		}
	}
	return s, nil
}

// worker resolves a Query's target graph ("" means the default graph).
func (s *Server) worker(graphID string) (*graphWorker, bool) {
	if graphID == "" {
		graphID = s.order[0]
	}
	w, ok := s.workers[graphID]
	return w, ok
}

// SubmitQuery admits one v1 query and returns the channel its Response
// will arrive on (exactly one Response per admitted query, even across
// shutdown; cache hits are answered immediately). Admission failures —
// unknown graph or class, out-of-range source, unmeetable deadline,
// full queue, draining — return a *RejectError and nothing is queued.
func (s *Server) SubmitQuery(q Query) (<-chan *Response, error) {
	if q.Class == "" {
		q.Class = DefaultClass
	}
	cl, ok := s.classes[q.Class]
	if !ok {
		s.metrics.RecordReject(q.GraphID, q.Class, RejectBadClass)
		return nil, &RejectError{Reason: RejectBadClass}
	}
	w, ok := s.worker(q.GraphID)
	if !ok {
		s.metrics.RecordReject(q.GraphID, q.Class, RejectBadGraph)
		return nil, &RejectError{Reason: RejectBadGraph}
	}
	if q.Source < 0 || q.Source >= w.graph.NumVerts() {
		s.metrics.RecordReject(w.id, q.Class, RejectBadSource)
		return nil, &RejectError{Reason: RejectBadSource}
	}
	if s.draining.Load() {
		s.metrics.RecordReject(w.id, q.Class, RejectDraining)
		return nil, &RejectError{Reason: RejectDraining}
	}
	req := &Request{
		ID:       s.ids.Add(1),
		Graph:    w.id,
		Source:   q.Source,
		Class:    q.Class,
		Priority: cl.Priority,
		Est:      w.graph.Degree(q.Source),
		Enqueued: s.clock.Now(),
		Deadline: q.Deadline,
		done:     make(chan *Response, 1),
	}
	if err := w.submit(req, req.Enqueued, q.NoCache); err != nil {
		return nil, err
	}
	// If the server began draining while we were pushing, the loop's
	// flush may already have passed; the straggler sweep in Shutdown
	// answers anything still queued, so the request is never dropped.
	return req.done, nil
}

// Do is SubmitQuery plus the wait: it blocks until the query is served
// (returning the Response), not served (returning the Response's Err —
// a *RejectError for rejections), or ctx is done.
func (s *Server) Do(ctx context.Context, q Query) (*Response, error) {
	ch, err := s.SubmitQuery(q)
	if err != nil {
		return nil, err
	}
	select {
	case resp := <-ch:
		if resp.Err != nil {
			return nil, resp.Err
		}
		return resp, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// GraphInfo describes one registered graph.
type GraphInfo struct {
	ID       string `json:"id"`
	Default  bool   `json:"default"`
	Vertices int64  `json:"vertices"`
	Edges    int64  `json:"edges"`
	Sessions int    `json:"sessions"`
	QueueLen int    `json:"queue_len"`
}

// Graphs lists the registered graphs in registration order.
func (s *Server) Graphs() []GraphInfo {
	out := make([]GraphInfo, 0, len(s.order))
	for i, id := range s.order {
		w := s.workers[id]
		out = append(out, GraphInfo{
			ID: id, Default: i == 0,
			Vertices: w.graph.NumVerts(), Edges: w.graph.NumEdges(),
			Sessions: w.pool.Size(), QueueLen: w.q.Len(),
		})
	}
	return out
}

// Metrics returns the current per-class and per-graph metrics
// snapshot.
func (s *Server) Metrics() Snapshot {
	snap := s.metrics.Snapshot(s.draining.Load())
	for i := range snap.Graphs {
		if w, ok := s.workers[snap.Graphs[i].Graph]; ok {
			snap.Graphs[i].QueueLen = w.q.Len()
			snap.Graphs[i].QueueDelayEstimateNs = w.queueDelay().Nanoseconds()
			_, _, snap.Graphs[i].CacheEntries = w.cache.stats()
		}
	}
	return snap
}

// Draining reports whether the server has begun shutting down.
func (s *Server) Draining() bool { return s.draining.Load() }

// Shutdown drains gracefully: admission stops (new submissions reject
// with draining), every graph's pending queue runs as final batches as
// sessions free up, in-flight batches finish, and any straggler
// admitted during the race receives a draining rejection. Every
// admitted query gets exactly one Response. Shutdown is idempotent and
// returns when the server is fully stopped.
func (s *Server) Shutdown() {
	if s.draining.Swap(true) {
		<-s.stopped
		return
	}
	for _, id := range s.order {
		close(s.workers[id].quit)
	}
	for _, id := range s.order {
		s.workers[id].stop()
	}
	close(s.stopped)
}
