package serve

// Deterministic scheduler simulation: the Queue/Former/Policy layer is
// driven by explicit times from a FakeClock, so every case in these
// tables forms exactly the same batches on every run — dispatch order,
// priority aging, and the batch-former boundary conditions (k=1,
// k=BatchWidth, spillover past the width, empty flush) are all pinned.

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
func push(t *testing.T, q *Queue, source int64, class string, prio int, est int64, at time.Time) *Request {
	t.Helper()
	r := &Request{Source: source, Class: class, Priority: prio, Est: est, Enqueued: at}
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

func TestPolicyOrdering(t *testing.T) {
	// Four requests admitted in source order 0..3 at staggered times;
	// each policy must dispatch them in its own characteristic order.
	type arrival struct {
		source int64
		prio   int
		est    int64
		at     time.Duration // offset from t0
	}
	arrivals := []arrival{
		{source: 0, prio: 0, est: 900, at: 0},
		{source: 1, prio: 2, est: 300, at: 1 * time.Millisecond},
		{source: 2, prio: 1, est: 100, at: 2 * time.Millisecond},
		{source: 3, prio: 2, est: 300, at: 3 * time.Millisecond},
	}
	cases := []struct {
		policy Policy
		want   []int64
	}{
		// FCFS: admission order.
		{FCFS{}, []int64{0, 1, 2, 3}},
		// SJF: by estimated work, admission order on the est=300 tie.
		{SJF{}, []int64{2, 1, 3, 0}},
		// Strict priority (no aging): tier desc, admission order within
		// the prio=2 tie.
		{Priority{}, []int64{1, 3, 2, 0}},
	}
	for _, c := range cases {
		t.Run(c.policy.Name(), func(t *testing.T) {
			q := NewQueue(16)
			for _, a := range arrivals {
				push(t, q, a.source, "x", a.prio, a.est, t0.Add(a.at))
			}
			f := &Former{Queue: q, Policy: c.policy, BatchMax: 4}
			batch, _ := f.Next(t0.Add(10 * time.Millisecond))
			if !eqSources(batch, c.want) {
				t.Errorf("dispatch order %v, want %v", sourcesOf(batch), c.want)
			}
		})
	}
}

func TestSlackOrdering(t *testing.T) {
	// Slack dispatch: deadline carriers lead, earliest deadline first;
	// the deadline-free tail orders by class priority, then admission.
	q := NewQueue(16)
	push(t, q, 0, "batch", 0, 1, t0) // no deadline, tier 0
	push(t, q, 1, "interactive", 2, 1, t0).Deadline = t0.Add(80 * time.Millisecond)
	push(t, q, 2, "interactive", 2, 1, t0) // no deadline, tier 2
	push(t, q, 3, "batch", 0, 1, t0).Deadline = t0.Add(20 * time.Millisecond)
	f := &Former{Queue: q, Policy: Slack{}, BatchMax: 4}
	batch, _ := f.Next(t0.Add(10 * time.Millisecond))
	// 3 (20ms deadline) before 1 (80ms), then 2 (tier 2) before 0.
	if !eqSources(batch, []int64{3, 1, 2, 0}) {
		t.Errorf("slack dispatch order %v, want [3 1 2 0]", sourcesOf(batch))
	}
}

func TestPriorityAgingNoStarvation(t *testing.T) {
	// A batch-tier request admitted at t0 against a steady stream of
	// fresh interactive arrivals: with Aging=10ms its effective
	// priority gains 0.1/ms, so by t0+25ms it outranks priority-2
	// requests admitted in the last 5ms — the starvation bound is
	// (prioGap * Aging) = 20ms of queue wait.
	q := NewQueue(64)
	old := push(t, q, 99, "batch", 0, 1, t0)
	for i := int64(0); i < 4; i++ {
		// Fresh interactive arrivals, 1ms apart, newest at t0+24ms.
		push(t, q, i, "interactive", 2, 1, t0.Add(time.Duration(21+i)*time.Millisecond))
	}
	pol := Priority{Aging: 10 * time.Millisecond}
	now := t0.Add(25 * time.Millisecond)
	if e := pol.Effective(old, now); e <= 2 {
		t.Fatalf("aged effective priority %.2f should exceed the fresh tier 2", e)
	}
	f := &Former{Queue: q, Policy: pol, BatchMax: 2}
	batch, _ := f.Next(now)
	if len(batch) != 2 || batch[0].Source != 99 {
		t.Errorf("aged request should dispatch first, got %v", sourcesOf(batch))
	}

	// Without aging the same queue state starves it.
	q2 := NewQueue(64)
	push(t, q2, 99, "batch", 0, 1, t0)
	for i := int64(0); i < 4; i++ {
		push(t, q2, i, "interactive", 2, 1, t0.Add(time.Duration(21+i)*time.Millisecond))
	}
	f2 := &Former{Queue: q2, Policy: Priority{}, BatchMax: 2}
	batch2, _ := f2.Next(now)
	if len(batch2) != 2 || batch2[0].Source == 99 || batch2[1].Source == 99 {
		t.Errorf("strict priority should dispatch fresh tier-2 first, got %v", sourcesOf(batch2))
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
			f := &Former{Queue: q, Policy: FCFS{}, BatchMax: c.batchMax}
			for i := 0; i < c.pushes; i++ {
				push(t, q, int64(i), "x", 0, 1, t0)
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
	f := &Former{Queue: q, Policy: FCFS{}, BatchMax: 4}
	if got := f.Flush(t0); got != nil {
		t.Fatalf("empty flush produced %d batches", len(got))
	}
	// Flush splits spillover exactly like Next does.
	for i := 0; i < 6; i++ {
		push(t, q, int64(i), "x", 0, 1, t0)
	}
	got := f.Flush(t0)
	if len(got) != 2 || len(got[0]) != 4 || len(got[1]) != 2 {
		t.Fatalf("flush batches %d, want sizes [4 2]", len(got))
	}
	if q.Len() != 0 {
		t.Fatalf("flush left %d pending", q.Len())
	}
}

func TestQueueAdmissionControl(t *testing.T) {
	q := NewQueue(2)
	push(t, q, 0, "x", 0, 1, t0)
	push(t, q, 1, "x", 0, 1, t0)
	err := q.Push(&Request{Source: 2, Enqueued: t0})
	rej, ok := err.(*RejectError)
	if !ok || rej.Reason != RejectQueueFull {
		t.Fatalf("full queue Push: got %v, want RejectError(queue_full)", err)
	}
	// Dispatch frees capacity; admission resumes.
	f := &Former{Queue: q, Policy: FCFS{}, BatchMax: 1}
	if batch, _ := f.Next(t0.Add(time.Second)); !eqSources(batch, []int64{0}) {
		t.Fatalf("expected FCFS head, got %v", sourcesOf(batch))
	}
	if err := q.Push(&Request{Source: 3, Enqueued: t0}); err != nil {
		t.Fatalf("push after dispatch: %v", err)
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

func TestParsePolicy(t *testing.T) {
	for name, want := range map[string]string{"fcfs": "fcfs", "sjf": "sjf", "priority": "priority", "slack": "slack"} {
		p, err := ParsePolicy(name, time.Millisecond)
		if err != nil || p.Name() != want {
			t.Errorf("ParsePolicy(%q) = %v, %v", name, p, err)
		}
	}
	if _, err := ParsePolicy("lifo", 0); err == nil {
		t.Error("ParsePolicy should reject unknown names")
	}
}
