package serve

// Deterministic serving load test — the PR's acceptance criterion. A
// fixed-seed Zipf stream of 1024 queries over two registered graphs is
// driven through the Harness under a FakeClock, so batch composition,
// cache hit sequence, coalescing, and the deadline-shed set are
// bit-identical on every run. The test asserts the v1 serving
// contract: every served distance vector is bit-identical to the
// serial reference on its own graph, the hot-source cache hit rate
// reaches 0.25 under Zipf skew, no response with a deadline completes
// after it, and every submitted query is accounted for exactly once.

import (
	"math/rand"
	"testing"
	"time"

	pbfs "repro"
)

func TestDeterministicLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("load test skipped in -short mode")
	}
	const (
		seed    = uint64(0x10ad)
		queries = 1024
	)
	social, err := pbfs.NewRMATGraph(12, 8, seed)
	if err != nil {
		t.Fatal(err)
	}
	web, err := pbfs.NewRMATGraph(11, 8, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	opt := pbfs.Options{Algorithm: pbfs.OneDFlat, Ranks: 8, Machine: "franklin"}
	graphs := []struct {
		id string
		g  *pbfs.Graph
	}{{"social", social}, {"web", web}}

	// Per-graph hot-source pools and their serial oracle.
	pools := make(map[string][]int64, len(graphs))
	refs := make(map[string]map[int64][]int64, len(graphs))
	for _, gr := range graphs {
		pool := gr.g.Sources(64, seed)
		if len(pool) < 16 {
			t.Fatalf("graph %s: only %d sources", gr.id, len(pool))
		}
		pools[gr.id] = pool
		refs[gr.id] = make(map[int64][]int64, len(pool))
		for _, src := range pool {
			refs[gr.id][src] = gr.g.SerialBFS(src).Dist
		}
	}

	clock := NewFakeClock(time.Unix(1_700_000_000, 0))
	h, err := NewHarness(Config{
		Graphs: []GraphConfig{
			{ID: "social", Graph: social, Options: opt},
			{ID: "web", Graph: web, Options: opt},
		},
		BatchMax: 64, MaxWait: 3 * time.Millisecond,
		QueueDepth: 4096, Policy: Slack{},
		Clock: clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	type pending struct {
		q  Query
		ch <-chan *Response
	}
	var (
		inflight      []pending
		admissionShed int
		tight, soft   int
	)
	// Seeded Zipf arrival process: bursts of 8–32 queries, 1ms apart.
	// Every 16th query carries an already-due deadline (and NoCache, so
	// the cache cannot rescue it) — it must be shed, never served late.
	// Every 7th carries a loose one-hour deadline — it must be served,
	// in time. Sources are Zipf-skewed over each graph's 64-source pool
	// so hot sources repeat and the cache earns its hit rate.
	rng := rand.New(rand.NewSource(int64(seed)))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(pools["social"])-1))
	classes := DefaultClasses()
	submitted := 0
	for submitted < queries {
		burst := 8 + rng.Intn(25)
		if submitted+burst > queries {
			burst = queries - submitted
		}
		for i := 0; i < burst; i++ {
			gr := graphs[rng.Intn(len(graphs))]
			pool := pools[gr.id]
			q := Query{
				GraphID: gr.id,
				Source:  pool[int(zipf.Uint64())%len(pool)],
				Class:   classes[rng.Intn(len(classes))].Name,
			}
			submitted++
			switch {
			case submitted%16 == 0:
				q.Deadline = clock.Now()
				q.NoCache = true
				tight++
			case submitted%7 == 0:
				q.Deadline = clock.Now().Add(time.Hour)
				soft++
			}
			ch, err := h.Submit(q)
			if err != nil {
				rej, ok := AsReject(err)
				if !ok || rej.Reason != RejectDeadline {
					t.Fatalf("query %d: unexpected admission error %v", submitted, err)
				}
				admissionShed++
				continue
			}
			inflight = append(inflight, pending{q, ch})
		}
		clock.Advance(time.Millisecond)
		h.Pump()
	}
	h.Flush()

	var (
		served, shed, cached, coalesced int
		lateServed                      int
	)
	for i, p := range inflight {
		var resp *Response
		select {
		case resp = <-p.ch:
		default:
			t.Fatalf("query %d (graph %s source %d): no response after flush",
				i, p.q.GraphID, p.q.Source)
		}
		if rej, ok := AsReject(resp.Err); ok {
			if rej.Reason != RejectDeadline {
				t.Fatalf("query %d: rejected %q, only deadline sheds expected", i, rej.Reason)
			}
			shed++
			continue
		}
		if resp.Err != nil {
			t.Fatalf("query %d: %v", i, resp.Err)
		}
		served++
		if resp.Cached {
			cached++
		}
		if resp.Coalesced {
			coalesced++
		}
		// Cross-graph isolation: the response's plane must be sized for
		// and bit-identical to the serial reference of its own graph
		// (the two graphs have different vertex counts, so any mixing
		// shows up immediately).
		ref := refs[p.q.GraphID][p.q.Source]
		if int64(len(resp.Dist)) != int64(len(ref)) {
			t.Fatalf("query %d (graph %s): dist length %d, want %d",
				i, p.q.GraphID, len(resp.Dist), len(ref))
		}
		for v := range ref {
			if resp.Dist[v] != ref[v] {
				t.Fatalf("query %d (graph %s, source %d): dist[%d] = %d, serial reference %d",
					i, p.q.GraphID, p.q.Source, v, resp.Dist[v], ref[v])
			}
		}
		// The deadline guarantee: no served response completes after
		// its deadline.
		if !p.q.Deadline.IsZero() && resp.Completed.After(p.q.Deadline) {
			lateServed++
			t.Errorf("query %d (graph %s): completed %v after deadline %v",
				i, p.q.GraphID, resp.Completed, p.q.Deadline)
		}
	}
	if lateServed != 0 {
		t.Fatalf("%d responses completed after their deadline", lateServed)
	}
	if served+shed+admissionShed != queries {
		t.Fatalf("served %d + shed %d + admission-shed %d != %d queries",
			served, shed, admissionShed, queries)
	}
	if shed+admissionShed < tight {
		t.Errorf("deadline sheds %d below the %d already-due-deadline queries",
			shed+admissionShed, tight)
	}
	if served < soft {
		t.Errorf("served %d, below the %d loose-deadline queries alone", served, soft)
	}
	if coalesced == 0 {
		t.Error("no queries coalesced under Zipf skew")
	}

	// Metrics must agree with the response accounting, and the Zipf
	// cache hit rate must clear the acceptance floor.
	snap := h.Server.Metrics()
	if snap.Queries != int64(served) {
		t.Errorf("metrics queries %d, want %d", snap.Queries, served)
	}
	var hits, misses, deadlineShed int64
	for _, gs := range snap.Graphs {
		if gs.Queries == 0 || gs.Batches == 0 {
			t.Errorf("graph %s: queries=%d batches=%d, want traffic on both graphs",
				gs.Graph, gs.Queries, gs.Batches)
		}
		hits += gs.CacheHits
		misses += gs.CacheMisses
		deadlineShed += gs.DeadlineShed
	}
	if deadlineShed != int64(shed+admissionShed) {
		t.Errorf("metrics deadline sheds %d, want %d", deadlineShed, shed+admissionShed)
	}
	hitRate := float64(hits) / float64(hits+misses)
	if hitRate < 0.25 {
		t.Errorf("cache hit rate %.3f below 0.25 (hits=%d misses=%d)", hitRate, hits, misses)
	}
	if cached != int(hits) {
		t.Errorf("cached responses %d, metrics hits %d", cached, hits)
	}
	var classServed int64
	for _, c := range snap.Classes {
		classServed += c.Served
	}
	if classServed != int64(served) {
		t.Errorf("class served sum %d, want %d", classServed, served)
	}
	t.Logf("queries=%d served=%d shed=%d (admission %d) cached=%d coalesced=%d hit-rate=%.3f batches=%d",
		queries, served, shed+admissionShed, admissionShed, cached, coalesced, hitRate, snap.Batches)
}
