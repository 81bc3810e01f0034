package serve

// The batch execution seam, on live servers: the loop cuts a batch as
// soon as a session is free (an idle server answers at once, a backlog
// rides one batch, deadlines are judged at session acquisition), a
// batch that panics is contained (every attached request answered once
// with ErrBatchPanic, the session replaced, the server still serving),
// and a scripted service time shows QueueWait ending at session
// acquisition, not at completion.

import (
	"context"
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

// sessionHold scripts a live server's one session so a test can keep
// it busy: a batch led by source prime blocks in exec until released,
// so everything submitted meanwhile waits in the queue.
type sessionHold struct {
	srv     *Server
	prime   int64
	entered chan struct{}
	release chan struct{}
}

// newSessionHold wraps graph's exec; call it before the first query.
func newSessionHold(srv *Server, graph string, prime int64) *sessionHold {
	h := &sessionHold{srv: srv, prime: prime,
		entered: make(chan struct{}), release: make(chan struct{})}
	w := srv.workers[graph]
	run := w.exec
	w.exec = func(sess *pbfs.Session, sources []int64) (*pbfs.BatchResult, error) {
		if sources[0] == prime {
			h.entered <- struct{}{}
			<-h.release
		}
		return run(sess, sources)
	}
	return h
}

// hold submits the priming query and returns once its batch holds the
// session. The query bypasses the cache so every hold runs a batch.
func (h *sessionHold) hold(t *testing.T) <-chan *Response {
	t.Helper()
	ch, err := h.srv.SubmitQuery(Query{Source: h.prime, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-h.entered:
	case <-time.After(30 * time.Second):
		t.Fatal("priming query never reached a session")
	}
	return ch
}

// free lets the priming batch finish, returning its session to the
// pool.
func (h *sessionHold) free() { h.release <- struct{}{} }

// await receives ch's response, failing the test if none comes.
func await(t *testing.T, ch <-chan *Response) *Response {
	t.Helper()
	select {
	case resp := <-ch:
		return resp
	case <-time.After(30 * time.Second):
		t.Fatal("no response: request dropped")
		return nil
	}
}

// liveServer starts a one-session server on a small R-MAT graph.
func liveServer(t *testing.T, cfg Config) (*Server, *pbfs.Graph) {
	t.Helper()
	g, err := pbfs.NewRMATGraph(8, 8, 0xbad)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Graphs = []GraphConfig{{ID: "g", Graph: g, Options: pbfs.Options{Algorithm: pbfs.OneDFlat, Ranks: 4}}}
	cfg.Sessions = 1
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv, g
}

// checkSerial fails unless resp was served with g's serial distances.
func checkSerial(t *testing.T, g *pbfs.Graph, resp *Response) {
	t.Helper()
	if resp.Err != nil {
		t.Fatalf("source %d: %v", resp.Source, resp.Err)
	}
	ref := g.SerialBFS(resp.Source).Dist
	for v := range ref {
		if resp.Dist[v] != ref[v] {
			t.Fatalf("source %d: dist[%d] = %d, serial %d", resp.Source, v, resp.Dist[v], ref[v])
		}
	}
}

func TestIdleServerDispatchesAtOnce(t *testing.T) {
	// MaxWait holds no batch back: a lone query on an idle server is
	// cut as soon as it is queued.
	srv, g := liveServer(t, Config{MaxWait: time.Hour})
	defer srv.Shutdown()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := srv.Do(ctx, Query{Source: 3})
	if err != nil {
		t.Fatalf("lone query on an idle server with MaxWait 1h: %v", err)
	}
	checkSerial(t, g, resp)
	if resp.Occupancy != 1 {
		t.Errorf("occupancy %d, want 1", resp.Occupancy)
	}
}

func TestBacklogMergesIntoOneBatch(t *testing.T) {
	// Four distinct sources arrive 5 ms apart, each past the previous
	// one's MaxWait, while the one session is busy. They wait in the
	// queue and ride the next batch together.
	srv, g := liveServer(t, Config{MaxWait: time.Millisecond})
	defer srv.Shutdown()
	h := newSessionHold(srv, "g", 1)
	prime := h.hold(t)
	var chans []<-chan *Response
	for _, src := range []int64{3, 5, 7, 9} {
		ch, err := srv.SubmitQuery(Query{Source: src})
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
		time.Sleep(5 * time.Millisecond)
	}
	h.free()
	checkSerial(t, g, await(t, prime))
	var batch uint64
	for i, ch := range chans {
		resp := await(t, ch)
		checkSerial(t, g, resp)
		if i == 0 {
			batch = resp.Batch
		}
		if resp.Batch != batch || resp.Occupancy != 4 {
			t.Errorf("source %d: batch %d occupancy %d; want batch %d occupancy 4",
				resp.Source, resp.Batch, resp.Occupancy, batch)
		}
	}
}

func TestLiveServerDispatchesInSlackOrder(t *testing.T) {
	// A server configured with no Policy dispatches in Slack order:
	// with one-wide batches queued behind the held session, the
	// deadline carrier runs first, then the interactive query, then
	// the batch-class query admitted before both.
	srv, g := liveServer(t, Config{BatchMax: 1})
	defer srv.Shutdown()
	h := newSessionHold(srv, "g", 1)
	prime := h.hold(t)
	var chans []<-chan *Response
	for _, q := range []Query{
		{Source: 3, Class: "batch"},
		{Source: 5, Class: "interactive"},
		{Source: 7, Class: "batch", Deadline: time.Now().Add(time.Hour)},
	} {
		ch, err := srv.SubmitQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	h.free()
	checkSerial(t, g, await(t, prime))
	batch := make(map[int64]uint64)
	for _, ch := range chans {
		resp := await(t, ch)
		checkSerial(t, g, resp)
		batch[resp.Source] = resp.Batch
	}
	if !(batch[7] < batch[5] && batch[5] < batch[3]) {
		t.Errorf("batch IDs by source %v; want deadline query 7, then interactive 5, then batch 3", batch)
	}
}

func TestDeadlineShedAtAcquisition(t *testing.T) {
	// A deadline that passes while the only session is busy is judged
	// when a session is acquired for the query's batch: the query is
	// shed, never served late.
	srv, _ := liveServer(t, Config{})
	defer srv.Shutdown()
	h := newSessionHold(srv, "g", 1)
	prime := h.hold(t)
	deadline := time.Now().Add(20 * time.Millisecond)
	ch, err := srv.SubmitQuery(Query{Source: 3, Deadline: deadline})
	if err != nil {
		t.Fatalf("a feasible deadline was refused at admission: %v", err)
	}
	time.Sleep(time.Until(deadline) + 10*time.Millisecond)
	h.free()
	if resp := await(t, prime); resp.Err != nil {
		t.Fatalf("priming query: %v", resp.Err)
	}
	resp := await(t, ch)
	if rej, ok := AsReject(resp.Err); !ok || rej.Reason != RejectDeadline {
		t.Fatalf("query past its deadline at acquisition: err %v, completed %v after a deadline of %v",
			resp.Err, resp.Completed.Sub(deadline), deadline.Format(time.StampMilli))
	}
	if gs := srv.Metrics().Graphs[0]; gs.DeadlineShed != 1 {
		t.Errorf("deadline sheds %d, want 1", gs.DeadlineShed)
	}
}

func TestBatchPanicContained(t *testing.T) {
	const prime = 1
	srv, g := liveServer(t, Config{
		// Each round below queues its four sources behind a priming
		// query that holds the one session, so it dispatches exactly one
		// batch with all its riders attached. A session the panic failed
		// to return would hang every later round.
		BatchMax: 4, QueueDepth: 64,
	})
	w := srv.workers["g"]
	run := w.exec
	var batches atomic.Int64
	w.exec = func(sess *pbfs.Session, sources []int64) (*pbfs.BatchResult, error) {
		// The first batch is round 1's priming query; the second is
		// round 1.
		if batches.Add(1) == 2 {
			panic("injected rank failure")
		}
		return run(sess, sources)
	}
	h := newSessionHold(srv, "g", prime)

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
	// the panic as a 500; the handler blocks until answered, so it runs
	// beside the test and the session is released once it has queued.
	srcs := [4]int64{3, 5, 7, 9}
	primed := h.hold(t)
	chans := round(srcs)
	rec := httptest.NewRecorder()
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query",
			strings.NewReader(fmt.Sprintf(`{"source":%d}`, srcs[3]))))
	}()
	for limit := time.Now().Add(30 * time.Second); w.q.Len() < 4; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(limit) {
			t.Fatal("round 1's HTTP query never queued")
		}
	}
	h.free()
	checkSerial(t, g, await(t, primed))
	<-served
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "panicked") {
		t.Errorf("HTTP query in the panicking batch: status %d body %s", rec.Code, rec.Body)
	}
	for _, ch := range chans {
		if resp := await(t, ch); !errors.Is(resp.Err, ErrBatchPanic) || errors.As(resp.Err, new(*RejectError)) {
			t.Errorf("source %d in the panicking batch: err %v, want ErrBatchPanic", resp.Source, resp.Err)
		}
	}
	// The one batch counted is the priming query's.
	if gs := srv.Metrics().Graphs[0]; gs.InternalErrors != 3*dups+1 || gs.Batches != 1 {
		t.Errorf("after the panic: %d internal errors, %d batches; want %d, 1",
			gs.InternalErrors, gs.Batches, 3*dups+1)
	}

	// Rounds 2 and 3 (the same sources again, then fresh ones) are
	// served on the replacement session, riders included.
	for _, srcs := range [][4]int64{srcs, {11, 13, 15, 17}} {
		primed := h.hold(t)
		chans := append(round(srcs), submit(srcs[3]))
		h.free()
		checkSerial(t, g, await(t, primed))
		coalesced := 0
		for _, ch := range chans {
			resp := await(t, ch)
			checkSerial(t, g, resp)
			if resp.Coalesced {
				coalesced++
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
	h, clock := cacheHarness(t, 16)
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
