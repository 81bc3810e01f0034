package serve

// Deterministic scheduler simulation: the Queue/Former layer reads no
// clock, so every case in these tables forms exactly the same batches
// on every run — the Slack dispatch order and the batch-former boundary
// conditions (k=1, k=BatchWidth, spillover past the width, empty flush)
// are all pinned.

import (
	"fmt"
	"testing"
	"time"

	pbfs "repro"
)

// t0 is the simulation epoch every fake clock in this file starts at.
var t0 = time.Unix(1_000_000, 0)

// push admits a request with the given fields, failing the test on
// rejection.
func push(t *testing.T, q *Queue, source int64, class string, prio int, at time.Time) *Request {
	t.Helper()
	r := &Request{Source: source, Class: class, Priority: prio, Enqueued: at}
	if err := q.Push(r); err != nil {
		t.Fatalf("push source %d: %v", source, err)
	}
	return r
}

// sourcesOf projects a batch to its source IDs, the tables' comparison
// currency.
func sourcesOf(batch []*Request) []int64 {
	out := make([]int64, len(batch))
	for i, r := range batch {
		out[i] = r.Source
	}
	return out
}

func eqSources(got []*Request, want []int64) bool {
	if len(got) != len(want) {
		return false
	}
	for i, r := range got {
		if r.Source != want[i] {
			return false
		}
	}
	return true
}

func TestSlackOrdering(t *testing.T) {
	// Slack dispatch: deadline carriers lead, earliest deadline first;
	// the deadline-free tail orders by class priority, then admission.
	q := NewQueue(16)
	push(t, q, 0, "batch", 0, t0) // no deadline, tier 0
	push(t, q, 1, "interactive", 2, t0).Deadline = t0.Add(80 * time.Millisecond)
	push(t, q, 2, "interactive", 2, t0) // no deadline, tier 2
	push(t, q, 3, "batch", 0, t0).Deadline = t0.Add(20 * time.Millisecond)
	f := &Former{Queue: q, Policy: Slack{}, BatchMax: 4}
	batch, _ := f.Next(t0.Add(10 * time.Millisecond))
	// 3 (20ms deadline) before 1 (80ms), then 2 (tier 2) before 0.
	if !eqSources(batch, []int64{3, 1, 2, 0}) {
		t.Errorf("slack dispatch order %v, want [3 1 2 0]", sourcesOf(batch))
	}
}

func TestFormerBoundaries(t *testing.T) {
	cases := []struct {
		name     string
		batchMax int
		pushes   int
		// wantBatches is the expected batch sizes from looping Next.
		wantBatches []int
	}{
		{"k=1 every request is its own batch", 1, 3, []int{1, 1, 1}},
		{"k=64 full word dispatches", 64, 64, []int{64}},
		{"k>64 clamps to the mask word", 1000, 64, []int{64}},
		{"spillover past the width", 64, 70, []int{64, 6}},
		{"partial below the width", 64, 17, []int{17}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			q := NewQueue(2000)
			f := &Former{Queue: q, BatchMax: c.batchMax}
			for i := 0; i < c.pushes; i++ {
				push(t, q, int64(i), "x", 0, t0)
			}
			now := t0.Add(time.Second)
			var got []int
			for {
				batch, _ := f.Next(now)
				if batch == nil {
					break
				}
				got = append(got, len(batch))
			}
			if fmt.Sprint(got) != fmt.Sprint(c.wantBatches) {
				t.Errorf("batch sizes %v, want %v", got, c.wantBatches)
			}
			if q.Len() != 0 {
				t.Errorf("%d requests left in queue", q.Len())
			}
		})
	}
	if w := (&Former{BatchMax: 1000}).width(); w != pbfs.BatchWidth {
		t.Errorf("width clamp: got %d, want %d", w, pbfs.BatchWidth)
	}
}

func TestFormerEmptyFlush(t *testing.T) {
	q := NewQueue(8)
	f := &Former{Queue: q, BatchMax: 4}
	if got := f.Flush(); got != nil {
		t.Fatalf("empty flush produced %d batches", len(got))
	}
	// Flush splits spillover exactly like Next does.
	for i := 0; i < 6; i++ {
		push(t, q, int64(i), "x", 0, t0)
	}
	got := f.Flush()
	if len(got) != 2 || len(got[0]) != 4 || len(got[1]) != 2 {
		t.Fatalf("flush batches %d, want sizes [4 2]", len(got))
	}
	if q.Len() != 0 {
		t.Fatalf("flush left %d pending", q.Len())
	}
}

func TestQueueAdmissionControl(t *testing.T) {
	q := NewQueue(2)
	push(t, q, 0, "x", 0, t0)
	push(t, q, 1, "x", 0, t0)
	err := q.Push(&Request{Source: 2, Enqueued: t0})
	rej, ok := err.(*RejectError)
	if !ok || rej.Reason != RejectQueueFull {
		t.Fatalf("full queue Push: got %v, want RejectError(queue_full)", err)
	}
	// Dispatch frees capacity; admission resumes.
	f := &Former{Queue: q, BatchMax: 1}
	if batch, _ := f.Next(t0.Add(time.Second)); !eqSources(batch, []int64{0}) {
		t.Fatalf("expected the admission-order head, got %v", sourcesOf(batch))
	}
	if err := q.Push(&Request{Source: 3, Enqueued: t0}); err != nil {
		t.Fatalf("push after dispatch: %v", err)
	}
}

// TestQueueRejectsAfterDrain pins the shutdown sweep's closing of the
// queue: a push that lands after the sweep is rejected with draining
// instead of sitting in a queue no loop will serve.
func TestQueueRejectsAfterDrain(t *testing.T) {
	q := NewQueue(4)
	push(t, q, 0, "x", 0, t0)
	if got := q.drain(); !eqSources(got, []int64{0}) {
		t.Fatalf("drain returned %v, want [0]", sourcesOf(got))
	}
	err := q.Push(&Request{Source: 1, Enqueued: t0})
	if rej, ok := AsReject(err); !ok || rej.Reason != RejectDraining {
		t.Fatalf("push after drain: got %v, want RejectError(draining)", err)
	}
	if q.Len() != 0 {
		t.Fatalf("push after drain queued a request: %d pending", q.Len())
	}
}

func TestFakeClock(t *testing.T) {
	c := NewFakeClock(t0)
	if !c.Now().Equal(t0) {
		t.Fatalf("fake clock start %v", c.Now())
	}
	c.Advance(3 * time.Second)
	if want := t0.Add(3 * time.Second); !c.Now().Equal(want) {
		t.Fatalf("advanced clock %v, want %v", c.Now(), want)
	}
}
