package serve

// End-to-end conformance and lifecycle tests for the batching server:
// concurrent HTTP queries over a seeded R-MAT graph must return
// distance vectors bit-identical to the serial reference, and shutdown
// under load must answer every admitted request.
//
// The graph seed follows the PR 5 conformance replay pattern: a
// failure prints the seed, and
//
//	PBFS_CONFORMANCE_SEED=<seed> go test -run TestServerE2E ./internal/serve
//
// replays that graph in isolation.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	pbfs "repro"
)

// e2eSeed returns the graph seed for the end-to-end tests, honoring
// the PBFS_CONFORMANCE_SEED replay override.
func e2eSeed(t *testing.T) uint64 {
	t.Helper()
	if env := os.Getenv("PBFS_CONFORMANCE_SEED"); env != "" {
		seed, err := strconv.ParseUint(env, 10, 64)
		if err != nil {
			t.Fatalf("bad PBFS_CONFORMANCE_SEED %q: %v", env, err)
		}
		return seed
	}
	return 0xe2e
}

func TestServerE2EConformance(t *testing.T) {
	seed := e2eSeed(t)
	g, err := pbfs.NewRMATGraph(10, 8, seed)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Graphs:  []GraphConfig{{ID: "g", Graph: g, Options: pbfs.Options{Algorithm: pbfs.OneDFlat, Ranks: 4, Machine: "franklin"}}},
		MaxWait: 2 * time.Millisecond, QueueDepth: 1024,
		Sessions: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Reference distances for the source pool, computed once through
	// the serial oracle.
	pool := g.Sources(32, seed+1)
	if len(pool) == 0 {
		t.Fatalf("seed %d: no sources", seed)
	}
	refs := make(map[int64][]int64, len(pool))
	for _, src := range pool {
		refs[src] = g.SerialBFS(src).Dist
	}
	classes := []string{"interactive", "standard", "batch"}

	const queries = 200
	var wg sync.WaitGroup
	errs := make(chan error, queries)
	for i := 0; i < queries; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			src := pool[i%len(pool)]
			body, _ := json.Marshal(QueryRequest{Source: src, Class: classes[i%len(classes)], Dist: true})
			resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("query %d: status %d", i, resp.StatusCode)
				return
			}
			var out QueryResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				errs <- err
				return
			}
			ref := refs[src]
			if len(out.Dist) != len(ref) {
				errs <- fmt.Errorf("query %d: dist length %d != %d", i, len(out.Dist), len(ref))
				return
			}
			for v := range ref {
				if out.Dist[v] != ref[v] {
					errs <- fmt.Errorf("query %d source %d: dist[%d] = %d, serial reference %d",
						i, src, v, out.Dist[v], ref[v])
					return
				}
			}
			if out.Occupancy < 1 || out.SimTimeSeconds <= 0 {
				errs <- fmt.Errorf("query %d: occupancy %d, sim %g", i, out.Occupancy, out.SimTimeSeconds)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("seed %d (replay: PBFS_CONFORMANCE_SEED=%d): %v", seed, seed, err)
	}

	// The metrics endpoint must account for every query, per class.
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	var served int64
	for _, c := range snap.Classes {
		served += c.Served
		if c.Served > 0 && c.HarmonicMeanTEPS <= 0 {
			t.Errorf("class %s: served %d but harmonic TEPS %g", c.Class, c.Served, c.HarmonicMeanTEPS)
		}
	}
	if served != queries {
		t.Errorf("metrics served %d queries, want %d", served, queries)
	}
	if snap.Batches < 1 || snap.Batches > queries {
		t.Errorf("metrics batches %d out of range", snap.Batches)
	}

	// Health flips to draining after shutdown; queries reject.
	if r, err := http.Get(ts.URL + "/v1/healthz"); err != nil || r.StatusCode != http.StatusOK {
		t.Fatalf("healthz before shutdown: %v %v", r, err)
	} else {
		r.Body.Close()
	}
	srv.Shutdown()
	if r, err := http.Get(ts.URL + "/v1/healthz"); err != nil || r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after shutdown: %v %v", r, err)
	} else {
		r.Body.Close()
	}
	body, _ := json.Marshal(QueryRequest{Source: pool[0], Class: "standard"})
	if r, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body)); err != nil ||
		r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query after shutdown: %v %v", r, err)
	} else {
		r.Body.Close()
	}
}

func TestServerShutdownUnderLoad(t *testing.T) {
	// Hammer SubmitQuery from many goroutines while the server shuts down:
	// every admitted request must receive exactly one response — served
	// or rejected-with-reason — and none may hang. Run under -race in
	// CI (scripts/ci.sh).
	g, err := pbfs.NewRMATGraph(8, 8, 0x51d)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Graphs:  []GraphConfig{{ID: "g", Graph: g, Options: pbfs.Options{Algorithm: pbfs.OneDFlat, Ranks: 4}}},
		MaxWait: time.Millisecond, QueueDepth: 256, Sessions: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 8, 50
	var served, rejected, flushed atomic32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				ch, err := srv.SubmitQuery(Query{Source: int64((w*perWorker + i) % int(g.NumVerts())), Class: "standard"})
				if err != nil {
					rejected.add()
					continue
				}
				select {
				case resp := <-ch:
					if _, ok := AsReject(resp.Err); ok {
						flushed.add()
					} else if resp.Err != nil {
						t.Errorf("batch error: %v", resp.Err)
					} else {
						served.add()
					}
				case <-time.After(30 * time.Second):
					t.Errorf("worker %d query %d: no response after shutdown — request dropped", w, i)
					return
				}
			}
		}(w)
	}
	// Let some traffic through, then drain mid-stream.
	time.Sleep(2 * time.Millisecond)
	srv.Shutdown()
	wg.Wait()
	total := served.n() + rejected.n() + flushed.n()
	if total != workers*perWorker {
		t.Errorf("accounted responses %d != submitted %d (served %d, rejected %d, flushed %d)",
			total, workers*perWorker, served.n(), rejected.n(), flushed.n())
	}
	if served.n() == 0 {
		t.Error("shutdown raced ahead of all traffic; no query was served")
	}
}

// atomic32 is a tiny test counter.
type atomic32 struct {
	mu sync.Mutex
	v  int
}

func (a *atomic32) add()   { a.mu.Lock(); a.v++; a.mu.Unlock() }
func (a *atomic32) n() int { a.mu.Lock(); defer a.mu.Unlock(); return a.v }

func TestServerAdmissionRejections(t *testing.T) {
	g, err := pbfs.NewRMATGraph(6, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Graphs:   []GraphConfig{{ID: "g", Graph: g, Options: pbfs.Options{Algorithm: pbfs.OneDFlat, Ranks: 4}}},
		BatchMax: 64, QueueDepth: 2, Sessions: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A priming query holds the one session, so nothing else dispatches
	// and the 2-deep queue saturates deterministically.
	h := newSessionHold(srv, "g", 5)
	primed := h.hold(t)
	if _, err := srv.SubmitQuery(Query{Source: 0, Class: "no-such-class"}); reason(err) != RejectBadClass {
		t.Errorf("unknown class: %v", err)
	}
	if _, err := srv.SubmitQuery(Query{Source: g.NumVerts(), Class: "standard"}); reason(err) != RejectBadSource {
		t.Errorf("out-of-range source: %v", err)
	}
	if _, err := srv.SubmitQuery(Query{Source: -1, Class: "standard"}); reason(err) != RejectBadSource {
		t.Errorf("negative source: %v", err)
	}
	ch1, err := srv.SubmitQuery(Query{Source: 0, Class: "standard"})
	if err != nil {
		t.Fatal(err)
	}
	ch2, err := srv.SubmitQuery(Query{Source: 1, Class: "standard"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.SubmitQuery(Query{Source: 2, Class: "standard"}); reason(err) != RejectQueueFull {
		t.Errorf("saturated queue: %v", err)
	}
	snap := srv.Metrics()
	var fullRejects int64
	for _, c := range snap.Classes {
		fullRejects += c.Rejected[RejectQueueFull]
	}
	if fullRejects != 1 {
		t.Errorf("queue_full rejects %d, want 1", fullRejects)
	}
	// Shutdown flushes the two queued requests as a final batch once
	// the session is free: both must be served, not dropped.
	stopped := make(chan struct{})
	go func() {
		srv.Shutdown()
		close(stopped)
	}()
	h.free()
	<-stopped
	for i, ch := range []<-chan *Response{primed, ch1, ch2} {
		select {
		case resp := <-ch:
			if resp.Err != nil {
				t.Errorf("flushed query %d not served: %+v", i, resp)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("flushed query %d dropped", i)
		}
	}
	if _, err := srv.SubmitQuery(Query{Source: 0, Class: "standard"}); reason(err) != RejectDraining {
		t.Errorf("post-shutdown submit: %v", err)
	}
}

// reason extracts a RejectError's reason ("" for other errors).
func reason(err error) string {
	if rej, ok := err.(*RejectError); ok {
		return rej.Reason
	}
	return ""
}

func TestServerQueryContext(t *testing.T) {
	g, err := pbfs.NewRMATGraph(6, 8, 9)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Graphs:   []GraphConfig{{ID: "g", Graph: g, Options: pbfs.Options{Algorithm: pbfs.OneDFlat, Ranks: 4}}},
		BatchMax: 64, Sessions: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	// A priming query holds the one session, so the query below stays
	// queued and only the cancelled context can answer Do.
	h := newSessionHold(srv, "g", 5)
	h.hold(t)
	defer h.free()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := srv.Do(ctx, Query{Source: 0, Class: "standard"}); err != context.Canceled {
		t.Errorf("canceled query: %v", err)
	}
}

func TestHTTPErrors(t *testing.T) {
	g, err := pbfs.NewRMATGraph(6, 8, 11)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Graphs:  []GraphConfig{{ID: "g", Graph: g, Options: pbfs.Options{Algorithm: pbfs.OneDFlat, Ranks: 4}}},
		MaxWait: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if r, _ := http.Get(ts.URL + "/v1/query"); r.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/query status %d", r.StatusCode)
	}
	if r, _ := http.Post(ts.URL+"/v1/query", "application/json",
		bytes.NewReader([]byte("{not json"))); r.StatusCode != http.StatusBadRequest {
		t.Errorf("bad body status %d", r.StatusCode)
	}
	body, _ := json.Marshal(QueryRequest{Source: -1})
	if r, _ := http.Post(ts.URL+"/v1/query", "application/json",
		bytes.NewReader(body)); r.StatusCode != http.StatusBadRequest {
		t.Errorf("bad source status %d", r.StatusCode)
	}
	body, _ = json.Marshal(QueryRequest{Source: 0, Class: "vip"})
	if r, _ := http.Post(ts.URL+"/v1/query", "application/json",
		bytes.NewReader(body)); r.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown class status %d", r.StatusCode)
	}
	// Default class is "standard": a bare source serves fine.
	body, _ = json.Marshal(QueryRequest{Source: 0})
	r, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil || r.StatusCode != http.StatusOK {
		t.Fatalf("default class query: %v status %v", err, r)
	}
	var out QueryResponse
	if err := json.NewDecoder(r.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if out.Class != "standard" || out.Dist != nil {
		t.Errorf("default-class response %+v: want class standard, no dist vector", out)
	}
}

func TestHTTPV1Surface(t *testing.T) {
	// The versioned API over two registered graphs: /v1/graphs lists
	// the registry, /v1/query routes by graph ID (and flags cache
	// hits), and /v1/metrics reports per-graph accounting.
	big, err := pbfs.NewRMATGraph(7, 8, 21)
	if err != nil {
		t.Fatal(err)
	}
	small, err := pbfs.NewRMATGraph(6, 8, 22)
	if err != nil {
		t.Fatal(err)
	}
	opt := pbfs.Options{Algorithm: pbfs.OneDFlat, Ranks: 4}
	srv, err := New(Config{
		Graphs: []GraphConfig{
			{ID: "big", Graph: big, Options: opt},
			{ID: "small", Graph: small, Options: opt},
		},
		MaxWait: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	r, err := http.Get(ts.URL + "/v1/graphs")
	if err != nil {
		t.Fatal(err)
	}
	var infos []GraphInfo
	if err := json.NewDecoder(r.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.Header.Get("Deprecation") != "" {
		t.Error("/v1/graphs carries a Deprecation header")
	}
	if len(infos) != 2 || infos[0].ID != "big" || !infos[0].Default || infos[1].Default {
		t.Fatalf("graphs listing %+v", infos)
	}
	if infos[1].Vertices != small.NumVerts() {
		t.Errorf("small vertices %d, want %d", infos[1].Vertices, small.NumVerts())
	}

	// Route to the non-default graph; the dist vector is sized for it.
	post := func(qr QueryRequest) (*http.Response, QueryResponse) {
		t.Helper()
		body, _ := json.Marshal(qr)
		r, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out QueryResponse
		if r.StatusCode == http.StatusOK {
			if err := json.NewDecoder(r.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
		}
		r.Body.Close()
		return r, out
	}
	r, out := post(QueryRequest{Graph: "small", Source: 3, Dist: true})
	if r.StatusCode != http.StatusOK || out.Graph != "small" {
		t.Fatalf("small query status %d resp %+v", r.StatusCode, out)
	}
	if int64(len(out.Dist)) != small.NumVerts() {
		t.Fatalf("small dist length %d, want %d", len(out.Dist), small.NumVerts())
	}
	ref := small.SerialBFS(3).Dist
	for v := range ref {
		if out.Dist[v] != ref[v] {
			t.Fatalf("dist[%d] = %d, serial reference %d", v, out.Dist[v], ref[v])
		}
	}
	// The repeat is the source's second sighting, which admits its
	// plane; the third query is a cache hit, flagged on the wire and in
	// the per-graph metrics.
	post(QueryRequest{Graph: "small", Source: 3})
	if r, out = post(QueryRequest{Graph: "small", Source: 3}); !out.Cached {
		t.Errorf("repeat query status %d not flagged cached: %+v", r.StatusCode, out)
	}
	if r, _ = post(QueryRequest{Graph: "nope", Source: 0}); r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown graph status %d, want 404", r.StatusCode)
	}

	// Per-graph accounting on /v1/metrics.
	r, err = http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.NewDecoder(r.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if len(snap.Graphs) != 2 {
		t.Fatalf("metrics graphs %+v, want both registered graphs", snap.Graphs)
	}
	for _, gs := range snap.Graphs {
		if gs.Graph == "small" && gs.CacheHits < 1 {
			t.Errorf("small graph cache hits %d after the repeat query", gs.CacheHits)
		}
	}
}
