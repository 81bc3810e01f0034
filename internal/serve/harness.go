package serve

// Harness drives a Server's full pipeline deterministically: queries
// are admitted through the same validation → cache → coalesce → queue
// path as live traffic, but batches form and execute synchronously at
// explicit fake-clock instants instead of on the serving loops'
// goroutines. Same clock script, same submissions → bit-identical batch
// composition, cache hit sequence, and shed set on every run — the
// substrate of the deterministic load tests.
//
// A Harness is single-threaded by design: Submit and Pump from one
// goroutine.
type Harness struct {
	// Server is the harnessed server; its read-only surfaces (Metrics,
	// Graphs) work as usual. Its forming loops are not running — all
	// batching goes through Pump and Flush.
	Server *Server
	clock  Clock
}

// NewHarness builds a harnessed server from cfg. cfg.Clock should be a
// FakeClock the caller advances between Pump calls (a nil Clock
// defaults to Wall, which makes the harness pointless but not wrong).
func NewHarness(cfg Config) (*Harness, error) {
	s, err := newServer(cfg, false)
	if err != nil {
		return nil, err
	}
	return &Harness{Server: s, clock: s.clock}, nil
}

// Submit admits one query; cache hits answer on the returned channel
// immediately, everything else waits for a Pump or Flush.
func (h *Harness) Submit(q Query) (<-chan *Response, error) {
	return h.Server.SubmitQuery(q)
}

// Pump cuts and executes batches across all registered graphs, in
// registration order, until every queue is empty, and returns how many
// batches ran. It applies the serving loop's rule: each batch completes
// and returns its session before the next is cut, so every session is
// free at each cut, and responses land in a deterministic order.
func (h *Harness) Pump() int {
	n := 0
	for _, id := range h.Server.order {
		w := h.Server.workers[id]
		for batch, sess, acquired := w.next(); batch != nil; batch, sess, acquired = w.next() {
			w.runBatch(batch, sess, acquired)
			n++
		}
	}
	return n
}

// Flush drains every graph's queue as final batches, all cut at the
// current clock, and returns how many batches ran.
func (h *Harness) Flush() int {
	n := 0
	for _, id := range h.Server.order {
		w := h.Server.workers[id]
		now := h.clock.Now()
		for _, batch := range w.former.Flush(now) {
			w.runBatch(batch, w.pool.TryGet(), now)
			n++
		}
	}
	return n
}

// Close shuts the harnessed server down (straggler sweep, session
// pools released). Flush first to serve rather than reject anything
// still queued.
func (h *Harness) Close() { h.Server.Shutdown() }
