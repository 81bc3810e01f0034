package serve

// Second-sighting admission: a completed plane enters the cache only
// when its source is already resident, remembered in the key-only
// ghost list, or asked for by coalesced riders. Pinned through the
// Harness (the serve-cold rotation, the reuse-distance boundary, rider
// admission, the ghost invariants, CacheBytes) and fuzzed against a
// map-and-slice reference model.

import (
	"sync"
	"testing"
	"time"
)

// put admits p for source unconditionally, as a completion with
// coalesced riders does.
func (c *planeCache) put(source int64, p plane) {
	c.offer(source, p, widen(p.Dist), widen(p.Parent), true)
}

// serveOnce submits one query for src and runs its batch; it reports
// whether the answer came from the cache.
func serveOnce(t *testing.T, h *Harness, clock *FakeClock, src int64) bool {
	t.Helper()
	ch, err := h.Submit(Query{Source: src})
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Millisecond)
	h.Pump()
	resp := take(t, ch)
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	return resp.Cached
}

// checkGhost fails unless c keeps its ghost within capacity and
// disjoint from the resident entries.
func checkGhost(t *testing.T, c *planeCache) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ghost.Len() > c.cap || len(c.ghosts) != c.ghost.Len() {
		t.Fatalf("ghost holds %d keys (%d indexed), capacity %d", c.ghost.Len(), len(c.ghosts), c.cap)
	}
	for src := range c.ghosts {
		if _, ok := c.entries[src]; ok {
			t.Fatalf("source %d is both ghost and resident", src)
		}
	}
}

func TestCacheColdRotationAdmitsNothing(t *testing.T) {
	// The serve-cold pattern: every source recurs only after 2C-1
	// others, so no completion is a second sighting the ghost still
	// remembers, nothing is admitted and nothing hits.
	const c = 4
	h, clock := cacheHarness(t, c)
	for round := 0; round < 2; round++ {
		for src := int64(0); src < 2*c; src++ {
			if serveOnce(t, h, clock, src) {
				t.Fatalf("round %d source %d answered from cache", round, src)
			}
			checkGhost(t, h.Server.workers["g"].cache)
		}
	}
	gs := h.Server.Metrics().Graphs[0]
	if gs.CacheEntries != 0 || gs.CacheHits != 0 || gs.CacheBytes != 0 {
		t.Errorf("entries=%d hits=%d bytes=%d, want 0/0/0", gs.CacheEntries, gs.CacheHits, gs.CacheBytes)
	}
}

func TestCacheAdmitsWithinGhostReach(t *testing.T) {
	const c = 4
	h, clock := cacheHarness(t, c)
	// Source 100 recurs after c-1 one-off completions: the ghost (c
	// keys, 100 among them) still remembers it, so the second
	// completion is admitted and the third query hits.
	serveOnce(t, h, clock, 100)
	for src := int64(0); src < c-1; src++ {
		serveOnce(t, h, clock, src)
	}
	if serveOnce(t, h, clock, 100) {
		t.Fatal("second query for 100 hit before any admission")
	}
	if !serveOnce(t, h, clock, 100) {
		t.Fatal("source 100 recurring within the ghost's reach was not admitted")
	}
	// Source 200 recurs after c one-off completions: the ghost forgot
	// it, so its second completion is only remembered again.
	serveOnce(t, h, clock, 200)
	for src := int64(10); src < 10+c; src++ {
		serveOnce(t, h, clock, src)
	}
	serveOnce(t, h, clock, 200)
	if serveOnce(t, h, clock, 200) {
		t.Fatal("source 200 recurring past the ghost's reach was admitted")
	}
	checkGhost(t, h.Server.workers["g"].cache)
	if gs := h.Server.Metrics().Graphs[0]; gs.CacheEntries != 2 {
		// 100 on its second completion, 200 on its third.
		t.Errorf("cache entries %d, want 2", gs.CacheEntries)
	}
}

func TestCacheAdmitsCoalescedFlight(t *testing.T) {
	h, clock := cacheHarness(t, 4)
	lead, err := h.Submit(Query{Source: 9})
	if err != nil {
		t.Fatal(err)
	}
	rider, err := h.Submit(Query{Source: 9})
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Millisecond)
	h.Pump()
	rl, rr := take(t, lead), take(t, rider)
	if rl.Err != nil || rr.Err != nil || !rr.Coalesced {
		t.Fatalf("flight errs %v %v, rider coalesced=%v", rl.Err, rr.Err, rr.Coalesced)
	}
	if !serveOnce(t, h, clock, 9) {
		t.Fatal("a flight with a rider was not admitted at its first completion")
	}
	gs := h.Server.Metrics().Graphs[0]
	if want := 4 * int64(len(rl.Dist)+len(rl.Parent)); gs.CacheEntries != 1 || gs.CacheBytes != want {
		t.Errorf("entries=%d bytes=%d, want 1/%d", gs.CacheEntries, gs.CacheBytes, want)
	}
	checkGhost(t, h.Server.workers["g"].cache)
}

func TestCacheGhostInvariantsUnderSkew(t *testing.T) {
	// A skewed, repeating source stream: the ghost stays within
	// capacity and disjoint from the residents after every completion,
	// and CacheBytes tracks the resident planes exactly.
	const c = 3
	h, clock := cacheHarness(t, c)
	var words int64 // 4·(len(Dist)+len(Parent)) of one plane
	for i := 0; i < 60; i++ {
		src := int64(i % 7)
		if i%3 == 0 {
			src = int64(i % 2)
		}
		ch, err := h.Submit(Query{Source: src})
		if err != nil {
			t.Fatal(err)
		}
		clock.Advance(time.Millisecond)
		h.Pump()
		resp := take(t, ch)
		if resp.Err != nil {
			t.Fatal(resp.Err)
		}
		words = 4 * int64(len(resp.Dist)+len(resp.Parent))
		checkGhost(t, h.Server.workers["g"].cache)
		gs := h.Server.Metrics().Graphs[0]
		if gs.CacheEntries > c || gs.CacheBytes != int64(gs.CacheEntries)*words {
			t.Fatalf("step %d: entries=%d bytes=%d, want at most %d entries of %d bytes",
				i, gs.CacheEntries, gs.CacheBytes, c, words)
		}
	}
	if gs := h.Server.Metrics().Graphs[0]; gs.CacheHits == 0 || gs.CacheEntries == 0 {
		t.Errorf("hot sources never admitted: hits=%d entries=%d", gs.CacheHits, gs.CacheEntries)
	}
}

func TestPlaneCacheConcurrent(t *testing.T) {
	// Lookups and completions arrive from admission and from batch
	// goroutines at once; under -race the cache must stay consistent.
	c := newPlaneCache(4)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				src := int64(i * (g + 1) % 11)
				if _, ok := c.get(src); !ok {
					c.offer(src, plane{Batch: uint64(i)}, make([]int64, 2), nil, i%5 == 0)
				}
			}
		}(g)
	}
	wg.Wait()
	checkGhost(t, c)
	if n := c.len(); n > c.cap {
		t.Fatalf("%d resident planes, capacity %d", n, c.cap)
	}
}

// FuzzPlaneCache drives a planeCache with a random get/offer sequence
// and checks it against a map-and-slice model after every step: each
// get's hit or miss, the resident and ghost keys in recency order,
// each resident plane, the resident count, and residentBytes.
func FuzzPlaneCache(f *testing.F) {
	f.Add(uint8(2), []byte{1, 3, 1, 5, 0, 2, 1, 1, 7, 9, 1})
	f.Add(uint8(1), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(uint8(4), []byte{9, 11, 13, 15, 17, 9, 11, 1, 3, 0, 0, 2})
	f.Fuzz(func(t *testing.T, capacity uint8, ops []byte) {
		cp := int(capacity%6) + 1
		c := newPlaneCache(cp)
		var (
			resident []int64 // front = most recently used
			ghost    []int64 // front = most recently remembered
			planes   = map[int64]plane{}
			indexOf  = func(s []int64, v int64) int {
				for i, x := range s {
					if x == v {
						return i
					}
				}
				return -1
			}
			cut = func(s []int64, i int) []int64 { return append(s[:i:i], s[i+1:]...) }
		)
		for step, op := range ops {
			src := int64(op>>2) % 8
			switch op & 3 {
			case 0: // get
				p, ok := c.get(src)
				i := indexOf(resident, src)
				if ok != (i >= 0) {
					t.Fatalf("step %d: get(%d) hit=%v, model %v", step, src, ok, i >= 0)
				}
				if ok {
					resident = append([]int64{src}, cut(resident, i)...)
					if p.Batch != planes[src].Batch {
						t.Fatalf("step %d: get(%d) batch %d, model %d", step, src, p.Batch, planes[src].Batch)
					}
				}
			default: // offer; op&3 == 3 marks a completion with riders
				p := plane{Dist: make([]int32, step%5), Parent: make([]int32, step%3), Batch: uint64(step)}
				c.offer(src, p, widen(p.Dist), widen(p.Parent), op&3 == 3)
				if i := indexOf(resident, src); i >= 0 {
					resident = append([]int64{src}, cut(resident, i)...)
					planes[src] = p
					break
				}
				g := indexOf(ghost, src)
				if g < 0 && op&3 != 3 {
					if len(ghost) == cp {
						ghost = ghost[:cp-1]
					}
					ghost = append([]int64{src}, ghost...)
					break
				}
				if g >= 0 {
					ghost = cut(ghost, g)
				}
				if len(resident) == cp {
					delete(planes, resident[cp-1])
					resident = resident[:cp-1]
				}
				resident = append([]int64{src}, resident...)
				planes[src] = p
			}

			var gotRes, gotGhost []int64
			for el := c.lru.Front(); el != nil; el = el.Next() {
				e := el.Value.(*cacheEntry)
				gotRes = append(gotRes, e.source)
				if e.plane.Batch != planes[e.source].Batch {
					t.Fatalf("step %d: resident %d batch %d, model %d", step, e.source, e.plane.Batch, planes[e.source].Batch)
				}
			}
			for el := c.ghost.Front(); el != nil; el = el.Next() {
				gotGhost = append(gotGhost, el.Value.(int64))
			}
			if !equalInt64s(gotRes, resident) || !equalInt64s(gotGhost, ghost) {
				t.Fatalf("step %d: resident %v ghost %v, model %v %v", step, gotRes, gotGhost, resident, ghost)
			}
			if len(c.entries) != len(resident) || len(c.ghosts) != len(ghost) {
				t.Fatalf("step %d: index sizes %d/%d, lists %d/%d", step, len(c.entries), len(c.ghosts), len(resident), len(ghost))
			}
			var bytes int64
			for _, src := range resident {
				if indexOf(ghost, src) >= 0 {
					t.Fatalf("step %d: source %d both ghost and resident", step, src)
				}
				bytes += 4 * int64(len(planes[src].Dist)+len(planes[src].Parent))
			}
			if got := c.residentBytes(); got != bytes {
				t.Fatalf("step %d: residentBytes %d, model %d", step, got, bytes)
			}
			if n := c.len(); n != len(resident) {
				t.Fatalf("step %d: len %d, model %d", step, n, len(resident))
			}
		}
	})
}

func equalInt64s(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
