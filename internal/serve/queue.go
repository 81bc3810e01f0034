package serve

import (
	"sync"
	"time"
)

// Queue is the admission-controlled request queue: a bounded pending
// set that the Former drains in policy order. Push fails fast with a
// RejectError when the queue is at depth — saturation surfaces as a
// typed rejection the caller can report, not as backpressure of
// unbounded latency.
type Queue struct {
	mu      sync.Mutex
	depth   int
	pending []*Request
	seq     uint64
	drained bool // set by drain: later pushes reject with draining
}

// NewQueue returns a queue admitting at most depth pending requests
// (depths below 1 are raised to 1).
func NewQueue(depth int) *Queue {
	if depth < 1 {
		depth = 1
	}
	return &Queue{depth: depth}
}

// Push admits r, stamping its admission sequence (the FCFS key). It
// returns a RejectError with reason queue_full when the queue is at
// depth, and with reason draining once the queue has been drained.
func (q *Queue) Push(r *Request) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.drained {
		return &RejectError{Reason: RejectDraining}
	}
	if len(q.pending) >= q.depth {
		return &RejectError{Reason: RejectQueueFull}
	}
	r.seq = q.seq
	q.seq++
	q.pending = append(q.pending, r)
	return nil
}

// Len returns the number of pending requests.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.pending)
}

// Depth returns the admission limit.
func (q *Queue) Depth() int { return q.depth }

// take removes and returns up to k pending requests in policy order at
// now, and how many stay queued. The policy sorts the whole pending
// set; spillover (pending beyond k) stays queued for the next dispatch,
// which is how a burst larger than the batch width splits.
func (q *Queue) take(p Policy, now time.Time, k int) ([]*Request, int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.pending) == 0 || k < 1 {
		return nil, len(q.pending)
	}
	sortRequests(q.pending, p, now)
	if k > len(q.pending) {
		k = len(q.pending)
	}
	batch := make([]*Request, k)
	copy(batch, q.pending[:k])
	rest := q.pending[k:]
	n := copy(q.pending, rest)
	for i := n; i < len(q.pending); i++ {
		q.pending[i] = nil
	}
	q.pending = q.pending[:n]
	return batch, n
}

// drain removes and returns every pending request (the shutdown
// straggler sweep) and closes the queue to later pushes: a submission
// that passed the server's draining check before the sweep but pushes
// after it is rejected, not left queued with no loop to serve it.
func (q *Queue) drain() []*Request {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.drained = true
	out := q.pending
	q.pending = nil
	return out
}
