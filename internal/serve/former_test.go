package serve

// The Former.Next formation rule and planeCache refresh-at-capacity
// properties, pinned as tables over scripted queue states.

import (
	"testing"
	"time"
)

// TestFormerNext pins the formation rule: Next returns nil on an empty
// queue, and otherwise the first min(width, pending) requests in policy
// order, at any now — no trigger holds a batch back — while the rest
// stay queued, in order, for the next call.
func TestFormerNext(t *testing.T) {
	cases := []struct {
		name     string
		batchMax int
		pushes   int
		at       time.Duration // offset from t0 the batch is cut at
		want     []int64
	}{
		{name: "empty", batchMax: 4},
		{name: "one pending, cut at admission", batchMax: 4, pushes: 1, want: []int64{0}},
		{name: "partial below width", batchMax: 4, pushes: 3, want: []int64{2, 1, 0}},
		{name: "full width", batchMax: 4, pushes: 4, want: []int64{3, 2, 1, 0}},
		{name: "spillover stays queued", batchMax: 4, pushes: 6, want: []int64{5, 4, 3, 2}},
		{name: "an hour later, same cut", batchMax: 4, pushes: 6, at: time.Hour, want: []int64{5, 4, 3, 2}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// SJF with work falling as the source rises, so policy
			// order is the reverse of admission order.
			q := NewQueue(64)
			for i := 0; i < c.pushes; i++ {
				push(t, q, int64(i), "x", 0, int64(100-i), t0)
			}
			f := &Former{Queue: q, Policy: SJF{}, BatchMax: c.batchMax}
			batch, rest := f.Next(t0.Add(c.at))
			if c.want == nil {
				if batch != nil || rest != 0 {
					t.Fatalf("empty queue: Next = %v, rest %d; want nil, 0", sourcesOf(batch), rest)
				}
				return
			}
			if !eqSources(batch, c.want) {
				t.Errorf("batch %v, want %v", sourcesOf(batch), c.want)
			}
			wantRest := c.pushes - len(c.want)
			if rest != wantRest || q.Len() != wantRest {
				t.Errorf("rest %d, queue %d; want %d", rest, q.Len(), wantRest)
			}
			left, _ := f.Next(t0.Add(c.at))
			if len(left) != wantRest {
				t.Fatalf("second Next took %d, want the %d left", len(left), wantRest)
			}
			for i, r := range left {
				if want := int64(wantRest - 1 - i); r.Source != want {
					t.Errorf("spillover %v, want descending from %d", sourcesOf(left), wantRest-1)
					break
				}
			}
		})
	}
}

// TestFormerOccupancyUnderBacklog drives a Former on a fake clock with
// a sustained backlog: 240 requests arriving 24 per simulated
// millisecond, BatchMax 64, FCFS, and a batch cut once per millisecond
// (one session freeing up that often). Everything that arrived while
// the session was busy rides the next cut, so every request must
// dispatch exactly once and the mean batch width must stay at or above
// 16 (this stream forms batches of 24).
func TestFormerOccupancyUnderBacklog(t *testing.T) {
	const (
		requests = 240
		perMs    = 24
	)
	clock := NewFakeClock(t0)
	q := NewQueue(4 * requests)
	f := &Former{Queue: q, Policy: FCFS{}, BatchMax: 64}
	seen := make([]int, requests)
	batches := 0
	record := func(batch []*Request) {
		batches++
		for _, r := range batch {
			seen[r.Source]++
		}
	}
	for pushed := 0; pushed < requests; pushed += perMs {
		for i := pushed; i < pushed+perMs; i++ {
			push(t, q, int64(i), "x", 0, 1, clock.Now())
		}
		clock.Advance(time.Millisecond)
		for {
			batch, _ := f.Next(clock.Now())
			if batch == nil {
				break
			}
			record(batch)
		}
	}
	for _, batch := range f.Flush(clock.Now()) {
		record(batch)
	}
	for src, n := range seen {
		if n != 1 {
			t.Errorf("request %d dispatched %d times, want exactly once", src, n)
		}
	}
	if mean := float64(requests) / float64(batches); mean < 16 {
		t.Errorf("mean batch width %.1f over %d batches, want >= 16", mean, batches)
	}
}

// TestPlaneCacheRefreshAtCapacity pins the refresh/eviction interplay
// at exact capacity: a put on an existing key is a refresh — no
// eviction, recency moved to front — and both put- and get-refreshes
// change which entry the next insertion evicts.
func TestPlaneCacheRefreshAtCapacity(t *testing.T) {
	c := newPlaneCache(3)
	c.put(1, plane{Batch: 1})
	c.put(2, plane{Batch: 2})
	c.put(3, plane{Batch: 3})
	if _, _, size := c.stats(); size != 3 {
		t.Fatalf("size %d, want capacity 3", size)
	}

	// Refresh the LRU entry (1) by put at capacity: nothing is evicted,
	// the payload updates, and 1 becomes most-recent.
	c.put(1, plane{Batch: 10})
	if _, _, size := c.stats(); size != 3 {
		t.Fatalf("refresh at capacity changed size to %d", size)
	}
	for _, e := range []struct {
		src  int64
		want uint64
	}{{1, 10}, {2, 2}, {3, 3}} {
		if p, ok := c.get(e.src); !ok || p.Batch != e.want {
			t.Fatalf("after refresh: get(%d) = %v %v, want batch %d", e.src, p, ok, e.want)
		}
	}

	// The gets above touched 1, 2, 3 in order, so 1 is LRU again.
	// Insert 4: exactly 1 goes.
	c.put(4, plane{Batch: 4})
	if _, ok := c.get(1); ok {
		t.Fatal("put-refreshed then least-recently-touched entry 1 survived")
	}
	for _, src := range []int64{2, 3, 4} {
		if _, ok := c.get(src); !ok {
			t.Fatalf("entry %d evicted out of LRU order", src)
		}
	}

	// Recency is now 2 < 3 < 4. A get-refresh of the LRU entry (2)
	// changes the next victim: inserting 5 must evict 3, not 2.
	if _, ok := c.get(2); !ok {
		t.Fatal("entry 2 missing before refresh")
	}
	c.put(5, plane{Batch: 5})
	if _, ok := c.get(3); ok {
		t.Fatal("entry 3 survived despite being LRU after the get-refresh")
	}
	for _, src := range []int64{2, 4, 5} {
		if _, ok := c.get(src); !ok {
			t.Fatalf("entry %d missing after final insertion", src)
		}
	}
}
