package serve

import (
	"time"

	pbfs "repro"
)

// Former is the batch-formation rule: it watches a Queue and decides
// which pending requests ride the next batch — up to BatchMax, in
// Slack order. When a batch is cut is the serving loop's decision, not
// the former's: the loop cuts one whenever the queue is non-empty and a
// pooled session is free, so requests that arrive while every session
// is busy wait in the queue and merge into the next batch.
//
// The Former holds no clock and reads none: the Slack order depends
// only on the requests, so a test gets the same batches every run.
type Former struct {
	Queue *Queue
	// Policy is not read: Slack is the one dispatch order.
	Policy Slack
	// BatchMax is the dispatch width; it is clamped to [1,
	// pbfs.BatchWidth] (one mask word) at use.
	BatchMax int
	// MaxWait is not read: a batch is cut as soon as a session is free,
	// never held back on time.
	MaxWait time.Duration
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

// Next takes the next batch: the first min(BatchMax, pending) requests
// in Slack order, or nil on an empty queue. rest is how many requests
// stay queued for a later batch. The time argument is not read.
func (f *Former) Next(time.Time) (batch []*Request, rest int) {
	return f.Queue.take(f.width())
}

// Flush drains everything pending into Slack-ordered batches of at
// most BatchMax — Next until the queue is empty. An empty queue
// flushes to nothing.
func (f *Former) Flush() [][]*Request {
	var out [][]*Request
	for {
		b, _ := f.Queue.take(f.width())
		if b == nil {
			return out
		}
		out = append(out, b)
	}
}
