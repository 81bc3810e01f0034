package serve

// Former.Wait / Former.Next consistency and planeCache
// refresh-at-capacity properties, pinned as tables over scripted queue
// states.

import (
	"testing"
	"time"
)

// TestFormerWaitNextConsistency sweeps queue states and probe times and
// checks the contract the serving loop sleeps on: Wait(now) == 0 means
// Next(now) either forms a batch right now or nothing is due at all
// (empty queue, or no max-wait and no deadlines), and Wait(now) > 0
// means Next(now) forms nothing and reports the same remaining time.
// Neither call may consume the queue when it forms nothing.
func TestFormerWaitNextConsistency(t *testing.T) {
	est := 10 * time.Millisecond
	type state struct {
		name    string
		maxWait time.Duration
		// setup fills the queue; deadlines are offsets from t0.
		pushes    int
		deadlines []time.Duration
	}
	states := []state{
		{name: "empty", maxWait: time.Millisecond},
		{name: "partial below width", maxWait: 5 * time.Millisecond, pushes: 3},
		{name: "full width", maxWait: 5 * time.Millisecond, pushes: 4},
		{name: "deadline carrier", maxWait: time.Hour, pushes: 1,
			deadlines: []time.Duration{30 * time.Millisecond}},
		{name: "no max-wait no deadlines", maxWait: 0, pushes: 2},
		{name: "no max-wait with deadline", maxWait: 0, pushes: 2,
			deadlines: []time.Duration{0, 40 * time.Millisecond}},
	}
	probes := []time.Duration{0, time.Millisecond, 5 * time.Millisecond,
		20 * time.Millisecond, 50 * time.Millisecond, time.Second}

	for _, st := range states {
		t.Run(st.name, func(t *testing.T) {
			for _, at := range probes {
				q := NewQueue(64)
				for i := 0; i < st.pushes; i++ {
					r := push(t, q, int64(i), "x", 0, 1, t0)
					if i < len(st.deadlines) && st.deadlines[i] > 0 {
						r.Deadline = t0.Add(st.deadlines[i])
					}
				}
				f := &Former{Queue: q, Policy: FCFS{}, BatchMax: 4,
					MaxWait: st.maxWait, Est: func() time.Duration { return est }}
				now := t0.Add(at)
				wait := f.Wait(now)
				if lenBefore := q.Len(); lenBefore != st.pushes {
					t.Fatalf("at +%v: Wait consumed the queue (%d -> %d)", at, st.pushes, lenBefore)
				}
				batch, nextWait := f.Next(now)
				switch {
				case wait > 0:
					if batch != nil {
						t.Errorf("at +%v: Wait=%v but Next formed %v", at, wait, sourcesOf(batch))
					}
					if nextWait != wait {
						t.Errorf("at +%v: Wait=%v disagrees with Next's wait %v", at, wait, nextWait)
					}
					if q.Len() != st.pushes {
						t.Errorf("at +%v: undue Next consumed the queue", at)
					}
				case batch != nil:
					// Wait==0 with something due: the batch forms now.
					if nextWait != 0 {
						t.Errorf("at +%v: formed a batch with wait %v", at, nextWait)
					}
				default:
					// Wait==0 and no batch: nothing may be due, which for
					// this former means an empty queue or a state with no
					// max-wait and no deadlines pending.
					if q.Len() > 0 && st.maxWait > 0 {
						t.Errorf("at +%v: Wait=0, no batch, yet %d pending under MaxWait %v",
							at, q.Len(), st.maxWait)
					}
					if q.Len() > 0 {
						for _, r := range q.pending {
							if !r.Deadline.IsZero() {
								t.Errorf("at +%v: Wait=0, no batch, deadline carrier pending", at)
							}
						}
					}
				}
			}
		})
	}
}

// TestFormerOccupancyUnderBacklog drives a Former on a fake clock with
// a sustained backlog: 240 requests arriving 24 per simulated
// millisecond, BatchMax 64, MaxWait 3 ms, FCFS. Arrivals outpace the
// max-wait timer, so full-width dispatches dominate; every request must
// dispatch exactly once and the mean batch width must stay at or above
// 16 (this stream forms batches of 60 on average).
func TestFormerOccupancyUnderBacklog(t *testing.T) {
	const (
		requests = 240
		perMs    = 24
	)
	clock := NewFakeClock(t0)
	q := NewQueue(4 * requests)
	f := &Former{Queue: q, Policy: FCFS{}, BatchMax: 64, MaxWait: 3 * time.Millisecond}
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
