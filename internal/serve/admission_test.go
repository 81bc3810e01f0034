package serve

// Admission-pricing and accounting regressions: deadline admission must
// price the backlog ahead of a request (not just one batch's service
// time), queue rejections must record the queue's typed reason, and
// engine-error responses must be visible in the metrics.

import (
	"testing"
	"time"

	pbfs "repro"
)

// admissionHarness builds a one-graph harness with the given batch
// width and queue depth.
func admissionHarness(t *testing.T, batchMax, queueDepth int) (*Harness, *FakeClock) {
	t.Helper()
	g, err := pbfs.NewRMATGraph(8, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	clock := NewFakeClock(t0)
	h, err := NewHarness(Config{
		Graphs:   []GraphConfig{{ID: "g", Graph: g, Options: pbfs.Options{Algorithm: pbfs.OneDFlat, Ranks: 4}}},
		BatchMax: batchMax, MaxWait: time.Millisecond, QueueDepth: queueDepth,
		CacheSize: -1, Clock: clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	return h, clock
}

func TestDeadlineAdmissionPricesBacklog(t *testing.T) {
	// Batch width 4, and a service-time estimate of 10ms pinned directly
	// on the worker (the EWMA the serving path would converge to).
	h, clock := admissionHarness(t, 4, 64)
	w := h.Server.workers["g"]
	est := 10 * time.Millisecond
	w.estServeNs.Store(int64(est))

	// Empty queue: a deadline 1.5 service times out is feasible — the
	// request rides the next dispatch and completes one service time
	// later. The backlog-aware price must not regress this.
	ch, err := h.Submit(Query{Source: 1, Deadline: clock.Now().Add(est + est/2)})
	if err != nil {
		t.Fatalf("empty-queue admission: %v", err)
	}

	// Fill the dispatch cycle: 3 more requests make a 4-wide backlog.
	// A request admitted behind it completes after TWO service times
	// (the backlog's cycle, then its own), so the same 1.5-est deadline
	// is now infeasible and must shed at admission — the old price of a
	// single est would admit it and shed it only at dispatch, after it
	// consumed queue capacity.
	for src := int64(2); src <= 4; src++ {
		if _, err := h.Submit(Query{Source: src}); err != nil {
			t.Fatalf("fill backlog: %v", err)
		}
	}
	if w.q.Len() != 4 {
		t.Fatalf("backlog %d, want 4", w.q.Len())
	}
	_, err = h.Submit(Query{Source: 5, Deadline: clock.Now().Add(est + est/2)})
	rej, ok := AsReject(err)
	if !ok || rej.Reason != RejectDeadline {
		t.Fatalf("backlogged 1.5-est deadline: %v, want RejectDeadline at admission", err)
	}
	// A deadline past both cycles is still feasible behind the backlog.
	if _, err := h.Submit(Query{Source: 5, Deadline: clock.Now().Add(3 * est)}); err != nil {
		t.Fatalf("feasible backlogged deadline rejected: %v", err)
	}

	clock.Advance(time.Millisecond)
	h.Flush()
	if resp := take(t, ch); resp.Err != nil {
		t.Fatalf("admitted request failed: %v", resp.Err)
	}
}

func TestAdmitDelayCycleAccounting(t *testing.T) {
	h, _ := admissionHarness(t, 4, 64)
	w := h.Server.workers["g"]
	est := 8 * time.Millisecond
	w.estServeNs.Store(int64(est))

	// admitDelay = (full cycles ahead + own batch) * est; the queue
	// lengths walk the cycle boundary.
	cases := []struct {
		backlog int
		want    time.Duration
	}{
		{0, est},     // rides the next dispatch
		{3, est},     // same cycle: 4-wide batch has room
		{4, 2 * est}, // one full cycle ahead
		{8, 3 * est},
	}
	for _, c := range cases {
		for w.q.Len() < c.backlog {
			if _, err := h.Submit(Query{Source: int64(w.q.Len() + 1)}); err != nil {
				t.Fatal(err)
			}
		}
		if got := w.admitDelay(); got != c.want {
			t.Errorf("admitDelay at backlog %d = %v, want %v", c.backlog, got, c.want)
		}
	}
}

func TestSubmitRecordsTypedRejectReason(t *testing.T) {
	// The reason submit records must be the reason the queue returned,
	// and queue_full must still carry the Retry-After hint.
	h, _ := admissionHarness(t, 4, 2)
	w := h.Server.workers["g"]
	w.estServeNs.Store(int64(5 * time.Millisecond))
	for src := int64(1); src <= 2; src++ {
		if _, err := h.Submit(Query{Source: src}); err != nil {
			t.Fatal(err)
		}
	}
	_, err := h.Submit(Query{Source: 3})
	rej, ok := AsReject(err)
	if !ok {
		t.Fatalf("full queue returned %v, want *RejectError", err)
	}
	if rej.Reason != RejectQueueFull || rej.RetryAfter <= 0 {
		t.Fatalf("rejection %q retry-after %v, want queue_full with a hint", rej.Reason, rej.RetryAfter)
	}
	snap := h.Server.Metrics()
	var counted int64
	for _, c := range snap.Classes {
		counted += c.Rejected[rej.Reason]
	}
	if counted != 1 {
		t.Errorf("rejected[%s] = %d, want the returned reason counted once", rej.Reason, counted)
	}
}

func TestInternalErrorMetrics(t *testing.T) {
	// Engine errors at batch time must surface in the metrics: break the
	// worker's options after registration (an unknown machine profile)
	// so every dispatched batch fails, and check each attached request
	// is both answered and counted.
	h, clock := admissionHarness(t, 4, 64)
	w := h.Server.workers["g"]
	w.opt.Machine = "no-such-machine"

	var chans []<-chan *Response
	for src := int64(1); src <= 3; src++ {
		ch, err := h.Submit(Query{Source: src})
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	clock.Advance(time.Millisecond)
	h.Pump()
	for i, ch := range chans {
		resp := take(t, ch)
		if resp.Err == nil {
			t.Fatalf("request %d served despite a broken engine", i)
		}
		if _, ok := AsReject(resp.Err); ok {
			t.Fatalf("request %d: engine error reported as a rejection: %v", i, resp.Err)
		}
	}
	snap := h.Server.Metrics()
	if got := snap.Graphs[0].InternalErrors; got != 3 {
		t.Errorf("graph internal_errors = %d, want 3", got)
	}
	var classErrs, served int64
	for _, c := range snap.Classes {
		classErrs += c.InternalErrors
		served += c.Served
	}
	if classErrs != 3 {
		t.Errorf("class internal_errors = %d, want 3", classErrs)
	}
	if served != 0 {
		t.Errorf("served = %d, want 0 (errors must not count as served)", served)
	}
}
