package serve

// The batch execution seam: a batch that panics is contained (every
// attached request answered once with ErrBatchPanic, the session
// replaced, the server still serving), and a scripted service time
// shows QueueWait ending at session acquisition, not at completion.

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	pbfs "repro"
)

func TestBatchPanicContained(t *testing.T) {
	g, err := pbfs.NewRMATGraph(8, 8, 0xbad)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Graphs: []GraphConfig{{ID: "g", Graph: g, Options: pbfs.Options{Algorithm: pbfs.OneDFlat, Ranks: 4}}},
		// A batch forms only once four distinct sources are queued, so
		// each round below dispatches exactly one batch with all its
		// riders attached. With one session, a session the panic failed
		// to return would hang every later round.
		BatchMax: 4, MaxWait: time.Hour, QueueDepth: 64, Sessions: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := srv.workers["g"]
	run := w.exec
	var batches atomic.Int64
	w.exec = func(sess *pbfs.Session, sources []int64) (*pbfs.BatchResult, error) {
		if batches.Add(1) == 1 {
			panic("injected rank failure")
		}
		return run(sess, sources)
	}

	const dups = 3
	var all []<-chan *Response
	// round submits dups concurrent queries for each of srcs[:3] — three
	// queued leaders and their riders — and returns their channels; the
	// caller's query for srcs[3] then fills the batch.
	round := func(srcs [4]int64) []<-chan *Response {
		chans := make([]<-chan *Response, 3*dups)
		var wg sync.WaitGroup
		for i := range chans {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				ch, err := srv.SubmitQuery(Query{Source: srcs[i%3]})
				if err != nil {
					t.Errorf("submit %d: %v", srcs[i%3], err)
					return
				}
				chans[i] = ch
			}(i)
		}
		wg.Wait()
		all = append(all, chans...)
		return chans
	}
	await := func(ch <-chan *Response) *Response {
		t.Helper()
		select {
		case resp := <-ch:
			return resp
		case <-time.After(30 * time.Second):
			t.Fatal("no response: request dropped")
			return nil
		}
	}
	submit := func(src int64) <-chan *Response {
		t.Helper()
		ch, err := srv.SubmitQuery(Query{Source: src})
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, ch)
		return ch
	}

	// Round 1 panics. Its fourth query goes through HTTP, which reports
	// the panic as a 500.
	srcs := [4]int64{3, 5, 7, 9}
	chans := round(srcs)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query",
		strings.NewReader(fmt.Sprintf(`{"source":%d}`, srcs[3]))))
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "panicked") {
		t.Errorf("HTTP query in the panicking batch: status %d body %s", rec.Code, rec.Body)
	}
	for _, ch := range chans {
		if resp := await(ch); !errors.Is(resp.Err, ErrBatchPanic) || resp.Reject() != nil {
			t.Errorf("source %d in the panicking batch: err %v, want ErrBatchPanic", resp.Source, resp.Err)
		}
	}
	if gs := srv.Metrics().Graphs[0]; gs.InternalErrors != 3*dups+1 || gs.Batches != 0 {
		t.Errorf("after the panic: %d internal errors, %d batches; want %d, 0",
			gs.InternalErrors, gs.Batches, 3*dups+1)
	}

	// Rounds 2 and 3 (the same sources again, then fresh ones) are
	// served on the replacement session, riders included.
	for _, srcs := range [][4]int64{srcs, {11, 13, 15, 17}} {
		chans := append(round(srcs), submit(srcs[3]))
		coalesced := 0
		for _, ch := range chans {
			resp := await(ch)
			if resp.Err != nil {
				t.Fatalf("source %d after the panic: %v", resp.Source, resp.Err)
			}
			if resp.Coalesced {
				coalesced++
			}
			ref := g.SerialBFS(resp.Source).Dist
			for v := range ref {
				if resp.Dist[v] != ref[v] {
					t.Fatalf("source %d: dist[%d] = %d, serial %d", resp.Source, v, resp.Dist[v], ref[v])
				}
			}
		}
		if coalesced != 3*(dups-1) {
			t.Errorf("sources %v: %d coalesced responses, want %d", srcs, coalesced, 3*(dups-1))
		}
	}

	stopped := make(chan struct{})
	go func() {
		srv.Shutdown()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(30 * time.Second):
		t.Fatal("Shutdown did not return after a panicking batch")
	}
	for _, ch := range all {
		select {
		case resp := <-ch:
			t.Errorf("source %d answered twice", resp.Source)
		default:
		}
	}
}

func TestQueueWaitStampedAtAcquisition(t *testing.T) {
	h, clock := cacheHarness(t, 16) // MaxWait 1ms
	const service = 5 * time.Millisecond
	w := h.Server.workers["g"]
	run := w.exec
	w.exec = func(sess *pbfs.Session, sources []int64) (*pbfs.BatchResult, error) {
		clock.Advance(service)
		return run(sess, sources)
	}

	lead, err := h.Submit(Query{Source: 3})
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(400 * time.Microsecond)
	rider, err := h.Submit(Query{Source: 3})
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(600 * time.Microsecond)
	acquired := clock.Now()
	if n := h.Pump(); n != 1 {
		t.Fatalf("pumped %d batches, want 1", n)
	}
	for _, c := range []struct {
		ch       <-chan *Response
		enqueued time.Time
	}{{lead, t0}, {rider, t0.Add(400 * time.Microsecond)}} {
		resp := take(t, c.ch)
		if want := acquired.Sub(c.enqueued); resp.QueueWait != want {
			t.Errorf("coalesced=%v: QueueWait %v, want %v", resp.Coalesced, resp.QueueWait, want)
		}
		if latency := resp.Completed.Sub(c.enqueued); resp.QueueWait+service != latency {
			t.Errorf("coalesced=%v: QueueWait %v + service %v != latency %v",
				resp.Coalesced, resp.QueueWait, service, latency)
		}
	}

	hit, err := h.Submit(Query{Source: 3})
	if err != nil {
		t.Fatal(err)
	}
	if resp := take(t, hit); !resp.Cached || resp.QueueWait != 0 {
		t.Errorf("cache hit: cached %v, QueueWait %v; want a zero wait", resp.Cached, resp.QueueWait)
	}
}
