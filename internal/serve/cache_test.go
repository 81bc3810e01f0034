package serve

// Hot-source cache and single-flight coalescing under a fake clock:
// the hit/miss/coalesce sequence for a scripted submission order is
// pinned bit-for-bit, along with LRU eviction order and the NoCache
// bypass.

import (
	"math"
	"testing"
	"time"

	pbfs "repro"
)

// cacheHarness builds a one-graph harness with the given cache size
// and a fake clock.
func cacheHarness(t *testing.T, cacheSize int) (*Harness, *FakeClock) {
	t.Helper()
	g, err := pbfs.NewRMATGraph(8, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	clock := NewFakeClock(t0)
	h, err := NewHarness(Config{
		Graphs:   []GraphConfig{{ID: "g", Graph: g, Options: pbfs.Options{Algorithm: pbfs.OneDFlat, Ranks: 4}}},
		BatchMax: 8, MaxWait: time.Millisecond, QueueDepth: 64,
		CacheSize: cacheSize, Clock: clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	return h, clock
}

// take receives the response that must already be waiting on ch.
func take(t *testing.T, ch <-chan *Response) *Response {
	t.Helper()
	select {
	case resp := <-ch:
		return resp
	default:
		t.Fatal("no response ready")
		return nil
	}
}

func TestCacheHitMissCoalesceOrdering(t *testing.T) {
	h, clock := cacheHarness(t, 16)

	// Miss: source 3 has never been served; it queues as the flight
	// leader.
	lead, err := h.Submit(Query{Source: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Coalesce: a duplicate of an in-queue source rides the leader
	// instead of queueing (and is not answered until the batch runs).
	rider, err := h.Submit(Query{Source: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Distinct source in the same window queues separately.
	other, err := h.Submit(Query{Source: 5})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-rider:
		t.Fatal("coalesced rider answered before its batch ran")
	default:
	}
	clock.Advance(time.Millisecond)
	if n := h.Pump(); n != 1 {
		t.Fatalf("pumped %d batches, want 1 (coalesced duplicate must not add occupancy)", n)
	}

	rl, rr, ro := take(t, lead), take(t, rider), take(t, other)
	if rl.Err != nil || rr.Err != nil || ro.Err != nil {
		t.Fatalf("batch errors: %v %v %v", rl.Err, rr.Err, ro.Err)
	}
	if rl.Cached || rl.Coalesced {
		t.Errorf("leader flags cached=%v coalesced=%v, want neither", rl.Cached, rl.Coalesced)
	}
	if !rr.Coalesced || rr.Cached {
		t.Errorf("rider flags cached=%v coalesced=%v, want coalesced only", rr.Cached, rr.Coalesced)
	}
	if rl.Batch != rr.Batch || rl.Occupancy != 2 || rr.Occupancy != 2 {
		t.Errorf("leader and rider must share one batch of occupancy 2: %d/%d occ %d/%d",
			rl.Batch, rr.Batch, rl.Occupancy, rr.Occupancy)
	}
	for v := range rl.Dist {
		if rl.Dist[v] != rr.Dist[v] {
			t.Fatalf("rider dist diverges from leader at %d", v)
		}
	}

	// Hit: source 3 is now cached; the answer is immediate (no Pump),
	// flagged Cached, and traceable to the producing batch.
	hit, err := h.Submit(Query{Source: 3})
	if err != nil {
		t.Fatal(err)
	}
	rh := take(t, hit)
	if rh.Err != nil || !rh.Cached || rh.Coalesced {
		t.Fatalf("cache hit flags err=%v cached=%v coalesced=%v", rh.Err, rh.Cached, rh.Coalesced)
	}
	if rh.Batch != rl.Batch {
		t.Errorf("hit batch %d, want producing batch %d", rh.Batch, rl.Batch)
	}
	for v := range rl.Dist {
		if rh.Dist[v] != rl.Dist[v] {
			t.Fatalf("cached dist diverges at %d", v)
		}
	}

	// NoCache bypasses the lookup: the query queues and pays a fresh
	// traversal in a new batch.
	fresh, err := h.Submit(Query{Source: 3, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Millisecond)
	if n := h.Pump(); n != 1 {
		t.Fatalf("NoCache pump ran %d batches, want 1", n)
	}
	rf := take(t, fresh)
	if rf.Err != nil || rf.Cached {
		t.Fatalf("NoCache response err=%v cached=%v, want a fresh traversal", rf.Err, rf.Cached)
	}
	if rf.Batch == rl.Batch {
		t.Errorf("NoCache rode the cached batch %d", rf.Batch)
	}

	// Metrics agree with the scripted sequence: lookups were miss(3),
	// miss(3, then coalesced), miss(5), hit(3) — only the NoCache
	// submission skipped the cache.
	snap := h.Server.Metrics()
	gs := snap.Graphs[0]
	if gs.CacheHits != 1 || gs.CacheMisses != 3 || gs.Coalesced != 1 {
		t.Errorf("metrics hits=%d misses=%d coalesced=%d, want 1/3/1",
			gs.CacheHits, gs.CacheMisses, gs.Coalesced)
	}
	if want := 0.25; gs.CacheHitRate != want {
		t.Errorf("hit rate %v, want %v", gs.CacheHitRate, want)
	}
	// Source 3 is resident (its flight had a rider); source 5 was
	// served once, so only its key is remembered.
	if gs.CacheEntries != 1 {
		t.Errorf("cache entries %d, want 1", gs.CacheEntries)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// Capacity 2: serving sources 1, 2, 3 evicts 1; a re-read of 2
	// refreshes its recency so serving 4 evicts 3, not 2. serve
	// completes its source twice: a plane is admitted on its second
	// sighting.
	h, clock := cacheHarness(t, 2)
	serve := func(src int64) {
		t.Helper()
		for i := 0; i < 2; i++ {
			ch, err := h.Submit(Query{Source: src, NoCache: true})
			if err != nil {
				t.Fatal(err)
			}
			clock.Advance(time.Millisecond)
			h.Pump()
			if resp := take(t, ch); resp.Err != nil {
				t.Fatal(resp.Err)
			}
		}
	}
	lookup := func(src int64) bool {
		t.Helper()
		ch, err := h.Submit(Query{Source: src})
		if err != nil {
			t.Fatal(err)
		}
		select {
		case resp := <-ch:
			return resp.Cached
		default: // queued: it was a miss
			h.Flush()
			if resp := take(t, ch); resp.Err != nil {
				t.Fatal(resp.Err)
			}
			return false
		}
	}
	serve(1)
	serve(2)
	serve(3) // evicts 1
	if lookup(1) {
		t.Fatal("source 1 survived eviction at capacity 2")
	}
	// The miss lookup above re-served 1 (a first sighting since its
	// eviction, so only remembered); rebuild the intended state
	// explicitly: serve 2 and 3 again, touch 2, serve 4.
	serve(2)
	serve(3)
	if !lookup(2) {
		t.Fatal("source 2 missing before refresh")
	}
	serve(4) // LRU is 3 now; 2 was refreshed by the hit
	if !lookup(2) {
		t.Fatal("refreshed source 2 evicted before stale 3")
	}
	if lookup(3) {
		t.Fatal("stale source 3 survived past capacity")
	}
}

func TestPlaneCacheUnit(t *testing.T) {
	// Disabled caches: capacity < 1 is nil, and nil is a valid
	// always-miss cache.
	if c := newPlaneCache(0); c != nil {
		t.Fatal("capacity 0 should disable the cache")
	}
	var nilCache *planeCache
	if _, ok := nilCache.get(1); ok {
		t.Fatal("nil cache hit")
	}
	nilCache.put(1, plane{})
	if n := nilCache.len(); n != 0 {
		t.Fatalf("nil cache holds %d planes", n)
	}

	c := newPlaneCache(2)
	var hits, misses int
	get := func(src int64) (plane, bool) {
		p, ok := c.get(src)
		if ok {
			hits++
		} else {
			misses++
		}
		return p, ok
	}
	c.put(1, plane{Batch: 1})
	c.put(2, plane{Batch: 2})
	if p, ok := get(1); !ok || p.Batch != 1 {
		t.Fatalf("get(1) = %v %v", p, ok)
	}
	c.put(3, plane{Batch: 3}) // evicts 2 (1 was refreshed by get)
	if _, ok := get(2); ok {
		t.Fatal("LRU entry 2 survived eviction")
	}
	if _, ok := get(3); !ok {
		t.Fatal("fresh entry 3 missing")
	}
	// put on an existing key refreshes in place without eviction.
	c.put(1, plane{Batch: 9})
	if p, ok := get(1); !ok || p.Batch != 9 {
		t.Fatalf("refreshed get(1) = batch %d %v, want 9 true", p.Batch, ok)
	}
	if hits != 3 || misses != 1 || c.len() != 2 {
		t.Fatalf("hits=%d misses=%d len=%d, want 3/1/2", hits, misses, c.len())
	}
}

func TestPlaneNarrowing(t *testing.T) {
	// Unreached, the root's level and parent, and the largest value a
	// graph the guard admits can hold all survive narrowing exactly.
	v := []int64{pbfs.Unreached, 0, math.MaxInt32}
	if got := widen(narrow(v)); !equalInt64s(got, v) {
		t.Fatalf("widen(narrow(%v)) = %v", v, got)
	}
	if !fitsInt32(math.MaxInt32) {
		t.Error("a graph of MaxInt32 vertices must be cacheable")
	}
	if fitsInt32(math.MaxInt32 + 1) {
		t.Error("a graph of MaxInt32+1 vertices must not be cached")
	}
}

func TestCachedAnswerIsExactAndOwned(t *testing.T) {
	// An in-process hit answers the producing traversal's vectors, in
	// copies of its own: writing to them, or to the producing miss's
	// vectors, leaves the next hit unchanged.
	h, clock := cacheHarness(t, 4)
	const src = 3
	serveOnce(t, h, clock, src) // remembered
	ch, err := h.Submit(Query{Source: src})
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Millisecond)
	h.Pump()
	miss := take(t, ch) // admitted
	if miss.Err != nil || miss.Cached {
		t.Fatalf("producing query err=%v cached=%v", miss.Err, miss.Cached)
	}
	wantDist := append([]int64(nil), miss.Dist...)
	wantParent := append([]int64(nil), miss.Parent...)
	reached := 0
	for _, d := range wantDist {
		if d != pbfs.Unreached {
			reached++
		}
	}
	if reached == 0 || reached == len(wantDist) {
		t.Fatalf("source %d reaches %d of %d vertices; the check needs both kinds", src, reached, len(wantDist))
	}
	hit := func() *Response {
		t.Helper()
		ch, err := h.Submit(Query{Source: src})
		if err != nil {
			t.Fatal(err)
		}
		resp := take(t, ch)
		if resp.Err != nil || !resp.Cached || resp.Batch != miss.Batch {
			t.Fatalf("hit err=%v cached=%v batch %d, want the producing batch %d",
				resp.Err, resp.Cached, resp.Batch, miss.Batch)
		}
		if !equalInt64s(resp.Dist, wantDist) || !equalInt64s(resp.Parent, wantParent) {
			t.Fatal("cached vectors differ from the producing traversal's")
		}
		return resp
	}
	first := hit()
	for _, v := range [][]int64{first.Dist, first.Parent, miss.Dist, miss.Parent} {
		for i := range v {
			v[i] = 99
		}
	}
	hit()
}
