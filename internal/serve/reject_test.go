package serve

// Every rejection the server can produce flows through the one typed
// *RejectError surface — either as the SubmitQuery/Do error or as the
// Response's Err — and every reason has exactly one row in the shared
// RejectStatus table the HTTP handler maps it through. These tests pin
// each reason's trigger, its error shape, and its wire status.

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	pbfs "repro"
)

// allRejectReasons is the closed set of reasons; a new reason must be
// added here, to RejectStatus, and to a trigger test below.
var allRejectReasons = []string{
	RejectQueueFull, RejectDraining, RejectBadSource,
	RejectBadClass, RejectBadGraph, RejectDeadline,
}

func TestRejectStatusTableComplete(t *testing.T) {
	if len(RejectStatus) != len(allRejectReasons) {
		t.Fatalf("RejectStatus has %d rows, want %d", len(RejectStatus), len(allRejectReasons))
	}
	want := map[string]int{
		RejectQueueFull: http.StatusTooManyRequests,
		RejectDraining:  http.StatusServiceUnavailable,
		RejectBadSource: http.StatusBadRequest,
		RejectBadClass:  http.StatusBadRequest,
		RejectBadGraph:  http.StatusNotFound,
		RejectDeadline:  http.StatusGatewayTimeout,
	}
	for _, reason := range allRejectReasons {
		status, ok := RejectStatus[reason]
		if !ok {
			t.Errorf("reason %q missing from RejectStatus", reason)
			continue
		}
		if status != want[reason] {
			t.Errorf("reason %q → %d, want %d", reason, status, want[reason])
		}
	}
	if got := statusOf("no_such_reason"); got != http.StatusInternalServerError {
		t.Errorf("unknown reason status %d, want 500", got)
	}
}

func TestRejectErrorShape(t *testing.T) {
	rej := &RejectError{Reason: RejectQueueFull, RetryAfter: 3 * time.Second}
	if rej.Error() != "serve: rejected: queue_full" {
		t.Errorf("Error() = %q", rej.Error())
	}
	if got, ok := AsReject(rej); !ok || got != rej {
		t.Errorf("AsReject(rej) = %v, %v", got, ok)
	}
	if _, ok := AsReject(http.ErrServerClosed); ok {
		t.Error("AsReject matched a non-rejection error")
	}
	if _, ok := AsReject(nil); ok {
		t.Error("AsReject matched a served response's nil error")
	}
}

func TestEveryRejectReasonTriggered(t *testing.T) {
	g, err := pbfs.NewRMATGraph(8, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	clock := NewFakeClock(t0)
	h, err := NewHarness(Config{
		Graphs:   []GraphConfig{{ID: "g", Graph: g, Options: pbfs.Options{Algorithm: pbfs.OneDFlat, Ranks: 4}}},
		BatchMax: 4, MaxWait: time.Millisecond, QueueDepth: 2,
		Clock: clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := h.Server

	// expectReject asserts a submission fails at admission with reason.
	expectReject := func(q Query, reason string) *RejectError {
		t.Helper()
		_, err := s.SubmitQuery(q)
		rej, ok := AsReject(err)
		if !ok || rej.Reason != reason {
			t.Fatalf("SubmitQuery(%+v) = %v, want rejection %q", q, err, reason)
		}
		return rej
	}

	expectReject(Query{GraphID: "nope", Source: 0}, RejectBadGraph)
	expectReject(Query{Source: 0, Class: "vip"}, RejectBadClass)
	expectReject(Query{Source: -1}, RejectBadSource)
	expectReject(Query{Source: g.NumVerts()}, RejectBadSource)
	// deadline (admission): the deadline is already in the past.
	expectReject(Query{Source: 0, Deadline: clock.Now().Add(-time.Nanosecond)}, RejectDeadline)

	// queue_full: depth 2 of distinct sources, the third rejects and
	// carries a positive Retry-After backpressure hint.
	for src := int64(1); src <= 2; src++ {
		if _, err := s.SubmitQuery(Query{Source: src}); err != nil {
			t.Fatalf("fill queue: %v", err)
		}
	}
	rej := expectReject(Query{Source: 3}, RejectQueueFull)
	if rej.RetryAfter <= 0 {
		t.Errorf("queue_full RetryAfter %v, want a positive hint", rej.RetryAfter)
	}

	// deadline (dispatch shed): a query whose deadline passes while it
	// is queued is answered with RejectDeadline on its channel, never
	// served late. Coalesce a rider onto it to cover the rider path.
	h.Flush() // make room
	lead, err := s.SubmitQuery(Query{Source: 4, Deadline: clock.Now(), NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	ride, err := s.SubmitQuery(Query{Source: 4, Deadline: clock.Now(), NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Millisecond)
	h.Pump()
	for name, ch := range map[string]<-chan *Response{"leader": lead, "rider": ride} {
		resp := take(t, ch)
		if r, ok := AsReject(resp.Err); !ok || r.Reason != RejectDeadline {
			t.Fatalf("%s past its deadline: err %v, want RejectDeadline", name, resp.Err)
		}
	}

	// draining: submissions after Shutdown reject, and requests still
	// queued at shutdown are answered with draining, not dropped.
	straggler, err := s.SubmitQuery(Query{Source: 5})
	if err != nil {
		t.Fatal(err)
	}
	s.Shutdown()
	expectReject(Query{Source: 0}, RejectDraining)
	resp := take(t, straggler)
	if r, ok := AsReject(resp.Err); !ok || r.Reason != RejectDraining {
		t.Fatalf("straggler: %v, want RejectDraining", resp.Err)
	}

	// Metrics counted one rejection per trigger above.
	snap := s.Metrics()
	total := map[string]int64{}
	for _, c := range snap.Classes {
		for reason, n := range c.Rejected {
			total[reason] += n
		}
	}
	want := map[string]int64{
		RejectBadGraph: 1, RejectBadClass: 1, RejectBadSource: 2,
		RejectDeadline: 3, RejectQueueFull: 1, RejectDraining: 2,
	}
	for reason, n := range want {
		if total[reason] != n {
			t.Errorf("rejected[%s] = %d, want %d", reason, total[reason], n)
		}
	}
}

func TestHTTPRejectMapping(t *testing.T) {
	// Every rejection reason a request can trigger over HTTP lands on
	// its RejectStatus row, and queue_full carries Retry-After.
	w := httptest.NewRecorder()
	writeReject(w, &RejectError{Reason: RejectQueueFull, RetryAfter: 1500 * time.Millisecond})
	if w.Code != http.StatusTooManyRequests {
		t.Errorf("queue_full status %d", w.Code)
	}
	if got := w.Header().Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After %q, want ceil(1.5s) = 2", got)
	}
	w = httptest.NewRecorder()
	writeReject(w, &RejectError{Reason: RejectDeadline})
	if w.Code != http.StatusGatewayTimeout {
		t.Errorf("deadline status %d", w.Code)
	}
	if got := w.Header().Get("Retry-After"); got != "" {
		t.Errorf("deadline Retry-After %q, want none", got)
	}
}
