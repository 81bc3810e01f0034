package serve

import (
	"time"

	pbfs "repro"
)

// Former is the batch-formation rule: it watches a Queue and decides,
// for a given now, whether a batch dispatches and which requests ride
// in it. The rule is "batch full OR max-wait elapsed":
//
//   - BatchMax pending requests dispatch immediately (a full mask
//     word's worth of amortization is on the table; waiting adds
//     latency and buys nothing), and
//   - otherwise a batch of everything pending (up to BatchMax, in
//     policy order) dispatches once the oldest pending request has
//     waited MaxWait — occupancy is traded for bounded queue delay.
//
// Deadline-carrying requests add a third dispatch trigger: a pending
// request whose latest viable dispatch time (Deadline minus the
// estimated batch service time, see Est) has arrived dispatches a
// partial batch immediately rather than waiting out MaxWait past its
// deadline.
//
// The Former holds no clock: Next and Flush take explicit times, so a
// test drives formation with a FakeClock and gets the same batches
// every run.
type Former struct {
	Queue  *Queue
	Policy Policy
	// BatchMax is the dispatch width; it is clamped to [1,
	// pbfs.BatchWidth] (one mask word) at use.
	BatchMax int
	// MaxWait bounds how long an admitted request waits before a
	// partial batch dispatches. Zero means "never dispatch partial
	// batches on time" — only full batches, due deadlines, and Flush
	// drain the queue.
	MaxWait time.Duration
	// Est estimates one batch's service time for deadline-aware
	// dispatch; nil estimates zero. The serving layer wires it to the
	// graph's EWMA of recent batches' simulated machine seconds.
	Est func() time.Duration
}

// width returns the clamped dispatch width.
func (f *Former) width() int {
	k := f.BatchMax
	if k < 1 {
		k = 1
	}
	if k > pbfs.BatchWidth {
		k = pbfs.BatchWidth
	}
	return k
}

// Next applies the dispatch rule at now. It returns the formed batch,
// or nil and the duration until the earliest due time (max-wait expiry
// or a deadline's latest viable dispatch); a zero wait with a nil
// batch means nothing is pending or nothing ever becomes due (wait for
// an arrival). Callers loop on Next until it returns nil — a burst
// larger than BatchMax dispatches as several consecutive full batches.
func (f *Former) Next(now time.Time) (batch []*Request, wait time.Duration) {
	k := f.width()
	if f.Queue.Len() >= k {
		return f.Queue.take(f.Policy, now, k), 0
	}
	var est time.Duration
	if f.Est != nil {
		est = f.Est()
	}
	due, ok := f.Queue.due(f.MaxWait, est)
	if !ok {
		return nil, 0
	}
	if d := due.Sub(now); d > 0 {
		return nil, d
	}
	return f.Queue.take(f.Policy, now, k), 0
}

// Wait reports, without forming anything, how long until the former
// next becomes due at now: zero when a batch could dispatch right now,
// or when nothing is pending or ever becomes due.
func (f *Former) Wait(now time.Time) time.Duration {
	if f.Queue.Len() >= f.width() {
		return 0
	}
	var est time.Duration
	if f.Est != nil {
		est = f.Est()
	}
	due, ok := f.Queue.due(f.MaxWait, est)
	if !ok {
		return 0
	}
	if d := due.Sub(now); d > 0 {
		return d
	}
	return 0
}

// Flush drains everything pending into policy-ordered batches of at
// most BatchMax, ignoring deadlines — the graceful-shutdown path. An
// empty queue flushes to nothing.
func (f *Former) Flush(now time.Time) [][]*Request {
	var out [][]*Request
	k := f.width()
	for {
		b := f.Queue.take(f.Policy, now, k)
		if b == nil {
			return out
		}
		out = append(out, b)
	}
}
