package serve

import (
	"container/list"
	"sync"
)

// DefaultCacheSize is the per-graph result-cache capacity when
// Config.CacheSize is zero: at most this many resident planes, and as
// many remembered one-off sources (see planeCache).
const DefaultCacheSize = 128

// plane is one completed search's cached output: the distance/parent
// vectors and the batch-share metrics the original traversal produced.
// Planes are immutable once cached — BFSBatch emits fresh output
// slices per call, so cached responses can share them without copying.
type plane struct {
	Dist, Parent   []int64
	Levels         int64
	Reached        int64
	TraversedEdges int64
	SimTime        float64
	TEPS           float64
	// Batch identifies the dispatch that produced the plane, echoed on
	// cached responses so a hit is traceable to its traversal.
	Batch uint64
}

// planeCache is a bounded LRU of completed source → plane entries for
// one graph: the hot-source result cache that lets Zipf-skewed traffic
// skip the kernel on repeats. A plane is admitted on its source's
// second sighting only (2Q's ghost queue, "cache on second hit"): a
// completion whose source is not yet resident, not among the last cap
// one-off completions (the ghost, keys only) and not asked for by
// coalesced riders is remembered as a key, not stored, so a source
// that recurs only after cap others never pins N words it cannot be
// hit for. Safe for concurrent use. A nil planeCache is a valid
// always-miss cache (caching disabled).
type planeCache struct {
	mu      sync.Mutex
	cap     int
	entries map[int64]*list.Element
	lru     list.List // front = most recently used
	ghosts  map[int64]*list.Element
	ghost   list.List // front = most recently remembered source
	hits    int64
	misses  int64
}

// cacheEntry is one LRU node's payload.
type cacheEntry struct {
	source int64
	plane  plane
}

// newPlaneCache returns a cache holding at most capacity planes and
// remembering at most capacity one-off sources; capacities below 1
// return nil (caching disabled).
func newPlaneCache(capacity int) *planeCache {
	if capacity < 1 {
		return nil
	}
	return &planeCache{
		cap:     capacity,
		entries: make(map[int64]*list.Element, capacity),
		ghosts:  make(map[int64]*list.Element, capacity),
	}
}

// get returns the cached plane for source, recording a hit or miss and
// refreshing the entry's recency on hit.
func (c *planeCache) get(source int64) (plane, bool) {
	if c == nil {
		return plane{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[source]
	if !ok {
		c.misses++
		return plane{}, false
	}
	c.hits++
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).plane, true
}

// offer hands the cache source's freshly completed plane. The plane is
// admitted (inserted, or refreshed in place, evicting the least
// recently used entry at capacity) when this is at least the source's
// second sighting: it is resident, remembered in the ghost, or repeat
// says the completion answered more than one request. Otherwise only
// the source is remembered, evicting the oldest ghost key at capacity.
func (c *planeCache) offer(source int64, p plane, repeat bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[source]; ok {
		el.Value.(*cacheEntry).plane = p
		c.lru.MoveToFront(el)
		return
	}
	if g, ok := c.ghosts[source]; ok {
		c.ghost.Remove(g)
		delete(c.ghosts, source)
	} else if !repeat {
		if c.ghost.Len() >= c.cap {
			oldest := c.ghost.Back()
			c.ghost.Remove(oldest)
			delete(c.ghosts, oldest.Value.(int64))
		}
		c.ghosts[source] = c.ghost.PushFront(source)
		return
	}
	if c.lru.Len() >= c.cap {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).source)
	}
	c.entries[source] = c.lru.PushFront(&cacheEntry{source: source, plane: p})
}

// stats returns the lifetime hit/miss counters and the current entry
// count.
func (c *planeCache) stats() (hits, misses int64, size int) {
	if c == nil {
		return 0, 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.lru.Len()
}

// residentBytes returns the resident planes' vector footprint: 8
// bytes per Dist and Parent word.
func (c *planeCache) residentBytes() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var words int
	for el := c.lru.Front(); el != nil; el = el.Next() {
		p := el.Value.(*cacheEntry).plane
		words += len(p.Dist) + len(p.Parent)
	}
	return 8 * int64(words)
}
