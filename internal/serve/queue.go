package serve

import (
	"sort"
	"sync"
)

// Slack names the one dispatch order, by time-to-deadline:
// deadline-carrying requests go first, least slack (earliest deadline)
// leading, so the queries closest to being shed are the ones a partial
// batch rescues. Every request in a batch shares the same estimated
// service time, so ordering by deadline is ordering by slack. Requests
// without deadlines follow, by SLO-class priority then admission order
// — a deadline is a stronger claim on the next batch than a tier. With
// one class and no deadlines the order is admission order.
//
// Config.Policy and Former.Policy are of this type and read by nothing:
// Slack is the order whatever they hold.
type Slack struct{}

// dispatchesBefore reports whether a dispatches before b in Slack
// order.
func dispatchesBefore(a, b *Request) bool {
	aHas, bHas := !a.Deadline.IsZero(), !b.Deadline.IsZero()
	switch {
	case aHas != bHas:
		return aHas
	case aHas && !a.Deadline.Equal(b.Deadline):
		return a.Deadline.Before(b.Deadline)
	case a.Priority != b.Priority:
		return a.Priority > b.Priority
	}
	return a.seq < b.seq
}

// Queue is the admission-controlled request queue: a bounded pending
// set that the Former drains in Slack order. Push fails fast with a
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

// Push admits r, stamping its admission sequence (the dispatch order's
// final tie-break). It returns a RejectError with reason queue_full
// when the queue is at depth, and with reason draining once the queue
// has been drained.
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

// take removes and returns up to k pending requests in Slack order,
// and how many stay queued. The whole pending set is sorted; spillover
// (pending beyond k) stays queued for the next dispatch, which is how a
// burst larger than the batch width splits.
func (q *Queue) take(k int) ([]*Request, int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.pending) == 0 || k < 1 {
		return nil, len(q.pending)
	}
	sort.SliceStable(q.pending, func(i, j int) bool {
		return dispatchesBefore(q.pending[i], q.pending[j])
	})
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
