package serve

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	pbfs "repro"
)

// graphWorker is one registered graph's serving pipeline: its own
// result cache, single-flight table, bounded queue, batch former, and
// session pool. Batches never mix graphs because every graph forms its
// own; the Server fans admissions out to workers by graph ID and each
// worker runs its own forming loop.
type graphWorker struct {
	s     *Server
	id    string
	graph *pbfs.Graph
	opt   pbfs.Options

	q      *Queue
	former *Former
	pool   *pbfs.SessionPool
	cache  *planeCache

	// exec runs one batch's sources on a checked-out session. It is
	// sess.BFSBatch on the worker's graph and options; tests replace it
	// to script service time or inject a panic.
	exec func(sess *pbfs.Session, sources []int64) (*pbfs.BatchResult, error)

	// estServeNs is the EWMA of recent batches' simulated machine time
	// in nanoseconds — the deterministic service-time estimate deadline
	// admission, the shed at session acquisition, and the Retry-After
	// hint all price against. Zero until the first sim-carrying batch
	// completes (and forever, without a Machine profile, in which case
	// only deadlines already in the past shed).
	estServeNs atomic.Int64

	// mu guards flights: source → queued leader request that duplicate
	// arrivals for the same source coalesce onto. An entry exists only
	// while its leader is in the queue; runBatch removes it, so later
	// duplicates start a fresh flight (in-queue single-flight).
	mu      sync.Mutex
	flights map[int64]*Request

	// Loop plumbing; started is false for Harness-driven workers, whose
	// batches are pumped synchronously instead. arrived and freed wake
	// the loop when a request is queued or a session returns to the
	// pool.
	started  bool
	arrived  chan struct{}
	freed    chan struct{}
	quit     chan struct{}
	loopDone chan struct{}
	execWG   sync.WaitGroup
}

// newGraphWorker builds one graph's pipeline from its resolved
// configuration; the caller warms the pool and starts the loop.
func newGraphWorker(s *Server, gc GraphConfig, batchMax, queueDepth int,
	policy Policy, cacheSize int) *graphWorker {
	w := &graphWorker{
		s: s, id: gc.ID, graph: gc.Graph, opt: gc.Options,
		q:        NewQueue(queueDepth),
		pool:     pbfs.NewSessionPool(gc.Sessions),
		cache:    newPlaneCache(cacheSize),
		flights:  make(map[int64]*Request),
		arrived:  make(chan struct{}, 1),
		freed:    make(chan struct{}, 1),
		quit:     make(chan struct{}),
		loopDone: make(chan struct{}),
	}
	w.former = &Former{Queue: w.q, Policy: policy, BatchMax: batchMax}
	w.exec = func(sess *pbfs.Session, sources []int64) (*pbfs.BatchResult, error) {
		return sess.BFSBatch(w.graph, sources, w.opt)
	}
	return w
}

// estServe returns the current batch-service-time estimate.
func (w *graphWorker) estServe() time.Duration {
	return time.Duration(w.estServeNs.Load())
}

// observeServe folds one completed batch's simulated seconds into the
// service-time EWMA (weight 1/4 to the new observation).
func (w *graphWorker) observeServe(simSeconds float64) {
	obs := int64(simSeconds * 1e9)
	if obs <= 0 {
		return
	}
	for {
		old := w.estServeNs.Load()
		next := obs
		if old > 0 {
			next = (3*old + obs) / 4
		}
		if w.estServeNs.CompareAndSwap(old, next) {
			return
		}
	}
}

// queueDelay estimates how long a request admitted now would wait
// before its batch completes: the dispatch cycles ahead of it (queue
// length over the batch width, at least one) times the estimated
// service time, floored at Config.MaxWait so the hint is never zero
// before the first batch has priced one. This is the Retry-After hint
// queue_full rejections carry and the queue_delay_estimate_ns the
// metrics surface.
func (w *graphWorker) queueDelay() time.Duration {
	width := w.former.width()
	cycles := (w.q.Len() + width - 1) / width
	if cycles < 1 {
		cycles = 1
	}
	return max(time.Duration(cycles)*w.estServe(), w.s.cfg.MaxWait)
}

// admitDelay estimates the time from admission at now to the admitted
// request's batch completing: the full dispatch cycles the current
// backlog occupies ahead of it, plus its own batch's service time.
// With an empty queue this is exactly one service time — the price a
// lone request pays — while a backlog sheds proportionally earlier,
// consistent with the cycle accounting queueDelay uses for the
// Retry-After hint. (queueDelay itself is deliberately not reused
// here: it rounds the backlog up to a minimum of one full cycle and
// floors the result at MaxWait, which would shed currently-feasible
// requests arriving at an empty queue.)
func (w *graphWorker) admitDelay() time.Duration {
	cycles := w.q.Len() / w.former.width()
	return time.Duration(cycles+1) * w.estServe()
}

// submit runs the worker-local admission path at now: deadline
// feasibility, cache lookup, single-flight coalescing, then the
// bounded queue. The request's done channel is answered immediately on
// a cache hit; admission failures return a *RejectError and the
// request is never queued.
func (w *graphWorker) submit(req *Request, now time.Time, noCache bool) error {
	m := w.s.metrics
	if !req.Deadline.IsZero() && now.Add(w.admitDelay()).After(req.Deadline) {
		m.RecordReject(w.id, req.Class, RejectDeadline)
		return &RejectError{Reason: RejectDeadline}
	}
	if !noCache {
		if p, ok := w.cache.get(req.Source); ok {
			m.RecordCache(w.id, true)
			resp := w.respondPlane(req, p, p.Batch, p.Occupancy(), now, now, true, false)
			m.Record(resp)
			return nil
		}
		m.RecordCache(w.id, false)
	}
	w.mu.Lock()
	if leader, ok := w.flights[req.Source]; ok {
		leader.riders = append(leader.riders, req)
		w.mu.Unlock()
		m.RecordCoalesce(w.id)
		return nil
	}
	if err := w.q.Push(req); err != nil {
		w.mu.Unlock()
		// Record the reason the queue actually rejected for — Push can
		// refuse for reasons other than capacity (a draining queue, an
		// oversized request class) and miscounting them all as
		// queue_full hides shutdown and policy sheds from the metrics.
		reason := RejectQueueFull
		if rej, ok := AsReject(err); ok {
			reason = rej.Reason
			if reason == RejectQueueFull {
				rej.RetryAfter = w.queueDelay()
			}
		}
		m.RecordReject(w.id, req.Class, reason)
		return err
	}
	w.flights[req.Source] = req
	w.mu.Unlock()
	if w.started {
		select {
		case w.arrived <- struct{}{}:
		default:
		}
	}
	return nil
}

// next cuts the next batch when the queue holds work and a pooled
// session is free: it checks the session out, reads the clock at that
// acquisition instant, and takes up to the batch width in policy order.
// It returns a nil batch, and holds no session, otherwise. Only the
// loop (or the single-threaded Harness) takes from the queue, so a
// queue seen non-empty still holds work once the session is out.
func (w *graphWorker) next() (batch []*Request, sess *pbfs.Session, acquired time.Time) {
	if w.q.Len() == 0 {
		return
	}
	if sess = w.pool.TryGet(); sess == nil {
		return
	}
	acquired = w.s.clock.Now()
	batch, _ = w.former.Next(acquired)
	return batch, sess, acquired
}

// runBatch executes one batch cut on sess at acquired, the instant the
// session was checked out: coalesced riders are resolved, unmeetable
// deadlines shed, the surviving sources traverse as one MS-BFS batch,
// and every attached request receives exactly one response. The
// session goes back to the pool, replaced first if the batch panicked
// (its requests are answered with ErrBatchPanic), and the loop is woken
// to cut the next batch. It is called synchronously by the Harness and
// from dispatch goroutines by the serving loop.
func (w *graphWorker) runBatch(batch []*Request, sess *pbfs.Session, acquired time.Time) {
	m := w.s.metrics
	// Resolve the single-flight table: everything attached up to this
	// instant rides; later duplicates start a fresh flight.
	groups := make([][]*Request, len(batch))
	w.mu.Lock()
	for i, leader := range batch {
		if w.flights[leader.Source] == leader {
			delete(w.flights, leader.Source)
		}
		groups[i] = append([]*Request{leader}, leader.riders...)
		leader.riders = nil
	}
	w.mu.Unlock()

	// Deadline shed: a request that cannot complete by its deadline —
	// acquisition plus the estimated service time — is answered with
	// RejectDeadline instead of being served late. A source stays in
	// the traversal as long as any attached request survives.
	est := w.estServe()
	sources := make([]int64, 0, len(batch))
	live := make([][]*Request, 0, len(batch))
	for _, reqs := range groups {
		keep := reqs[:0]
		for _, r := range reqs {
			if !r.Deadline.IsZero() && acquired.Add(est).After(r.Deadline) {
				m.RecordReject(w.id, r.Class, RejectDeadline)
				r.done <- &Response{
					ID: r.ID, Graph: w.id, Source: r.Source, Class: r.Class,
					Err: &RejectError{Reason: RejectDeadline},
				}
				continue
			}
			keep = append(keep, r)
		}
		if len(keep) > 0 {
			sources = append(sources, keep[0].Source)
			live = append(live, keep)
		}
	}
	var br *pbfs.BatchResult
	var err error
	if len(sources) > 0 {
		br, err = w.execute(sess, sources)
	}
	if errors.Is(err, ErrBatchPanic) {
		// A panic can leave the session's engines mid-search (a
		// poisoned collective group stays poisoned), so retire the
		// session and keep the pool at its size with a fresh one.
		sess.Close()
		sess = pbfs.NewSession()
	}
	w.pool.Put(sess)
	select {
	case w.freed <- struct{}{}:
	default:
	}
	if len(sources) == 0 {
		return
	}
	if err != nil {
		for _, reqs := range live {
			for _, r := range reqs {
				m.RecordError(w.id, r.Class)
				r.done <- &Response{
					ID: r.ID, Graph: w.id, Source: r.Source, Class: r.Class, Err: err,
				}
			}
		}
		return
	}
	id := w.s.batchIDs.Add(1)
	done := w.s.clock.Now()
	w.observeServe(br.SimTime)
	m.RecordBatch(w.id, len(sources))
	for i, reqs := range live {
		r := br.Results[i]
		p := plane{
			Dist: r.Dist, Parent: r.Parent,
			Levels: r.Levels, Reached: reachedCount(r.Dist),
			TraversedEdges: r.TraversedEdges,
			SimTime:        r.SimTime, TEPS: r.TEPS(),
			Batch: id,
		}
		w.cache.put(sources[i], p)
		for j, req := range reqs {
			resp := w.respondPlane(req, p, id, len(sources), acquired, done, false, j > 0)
			m.Record(resp)
		}
	}
}

// execute runs exec on sess and turns a panic into an error wrapping
// ErrBatchPanic: the loop runs batches on bare goroutines, where an
// unrecovered panic (World.Run re-raises a rank's) ends the process.
func (w *graphWorker) execute(sess *pbfs.Session, sources []int64) (br *pbfs.BatchResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			br, err = nil, fmt.Errorf("%w: %v", ErrBatchPanic, p)
		}
	}()
	return w.exec(sess, sources)
}

// respondPlane completes req with plane p and delivers the response on
// its done channel. The request waited until acquired, the instant its
// batch checked out a session (a cache hit passes its admission time),
// and completed at done.
func (w *graphWorker) respondPlane(req *Request, p plane, batch uint64, occupancy int,
	acquired, done time.Time, cached, coalesced bool) *Response {
	resp := &Response{
		ID: req.ID, Graph: w.id, Source: req.Source, Class: req.Class,
		Dist: p.Dist, Parent: p.Parent,
		Levels: p.Levels, Reached: p.Reached,
		Batch: batch, Occupancy: occupancy,
		Cached: cached, Coalesced: coalesced,
		QueueWait: acquired.Sub(req.Enqueued),
		Completed: done,
		SimTime:   p.SimTime, TEPS: p.TEPS,
		TraversedEdges: p.TraversedEdges,
	}
	req.done <- resp
	return resp
}

// Occupancy reports the batch width a cached plane is answered at: a
// hit rides no batch, so it serves alone.
func (plane) Occupancy() int { return 1 }

// start launches the worker's forming loop.
func (w *graphWorker) start() {
	w.started = true
	go w.loop()
}

// loop is the worker's serving loop. It is work-conserving: whenever
// the queue is non-empty and a pooled session is free it cuts a batch
// and runs it on a goroutine, so with K sessions at most K batches
// execute at once and requests that arrive meanwhile wait in the queue,
// where they merge into the next batch and admission can see them.
// Otherwise it sleeps until an arrival or a freed session. On quit it
// keeps cutting until the queue is empty.
func (w *graphWorker) loop() {
	defer close(w.loopDone)
	quit := w.quit
	for {
		if batch, sess, acquired := w.next(); batch != nil {
			w.execWG.Add(1)
			go func() {
				defer w.execWG.Done()
				w.runBatch(batch, sess, acquired)
			}()
			continue
		}
		if quit == nil && w.q.Len() == 0 {
			return
		}
		select {
		case <-w.arrived:
		case <-w.freed:
		case <-quit:
			quit = nil
		}
	}
}

// stop drains the worker: the loop (when started) runs the backlog as
// final batches and exits, in-flight batches finish, stragglers still
// queued are answered with a draining rejection, and the pool closes.
func (w *graphWorker) stop() {
	if w.started {
		<-w.loopDone
	}
	w.execWG.Wait()
	for _, req := range w.drainStragglers() {
		w.s.metrics.RecordReject(w.id, req.Class, RejectDraining)
		req.done <- &Response{
			ID: req.ID, Graph: w.id, Source: req.Source, Class: req.Class,
			Err: &RejectError{Reason: RejectDraining},
		}
	}
	w.pool.Close()
}

// drainStragglers empties the queue and resolves every drained
// request's riders, clearing the flight table.
func (w *graphWorker) drainStragglers() []*Request {
	drained := w.q.drain()
	var all []*Request
	w.mu.Lock()
	for _, leader := range drained {
		if w.flights[leader.Source] == leader {
			delete(w.flights, leader.Source)
		}
		all = append(all, leader)
		all = append(all, leader.riders...)
		leader.riders = nil
	}
	w.mu.Unlock()
	return all
}

// reachedCount counts the vertices the search reached.
func reachedCount(dist []int64) int64 {
	var n int64
	for _, d := range dist {
		if d != pbfs.Unreached {
			n++
		}
	}
	return n
}

// ceilSeconds rounds a duration up to whole seconds (minimum 1), the
// HTTP Retry-After currency.
func ceilSeconds(d time.Duration) int {
	if d <= 0 {
		return 1
	}
	return int(math.Ceil(d.Seconds()))
}
