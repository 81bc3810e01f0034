package serve

import (
	"container/list"
	"math"
	"sync"
)

// DefaultCacheSize is the per-graph result-cache capacity when
// Config.CacheSize is zero: at most this many resident planes, and as
// many remembered one-off sources (see planeCache).
const DefaultCacheSize = 128

// plane is one completed search's cached output: the distance/parent
// vectors, narrowed to 32 bits a vertex, and the batch-share metrics
// the original traversal produced. A cached plane is never written:
// an HTTP hit encodes its vectors as they are, and an in-process hit
// gets a widened copy, so no caller holds a slice of the cache.
type plane struct {
	Dist, Parent   []int32
	Levels         int64
	Reached        int64
	TraversedEdges int64
	SimTime        float64
	TEPS           float64
	// Batch identifies the dispatch that produced the plane, echoed on
	// cached responses so a hit is traceable to its traversal.
	Batch uint64
}

// fitsInt32 reports whether a graph of n vertices has planes that
// narrow exactly: every distance and parent is Unreached (-1) or a
// value below n.
func fitsInt32(n int64) bool { return n <= math.MaxInt32 }

// narrow copies v into 32-bit words; the caller has checked fitsInt32.
func narrow(v []int64) []int32 {
	out := make([]int32, len(v))
	for i, x := range v {
		out[i] = int32(x)
	}
	return out
}

// widen copies v back into the 64-bit words the public API carries.
func widen(v []int32) []int64 {
	out := make([]int64, len(v))
	for i, x := range v {
		out[i] = int64(x)
	}
	return out
}

// planeCache is a bounded LRU of completed source → plane entries for
// one graph: the hot-source result cache that lets Zipf-skewed traffic
// skip the kernel on repeats. A plane is admitted on its source's
// second sighting only (2Q's ghost queue, "cache on second hit"): a
// completion whose source is not yet resident, not among the last cap
// one-off completions (the ghost, keys only) and not asked for by
// coalesced riders is remembered as a key, not stored, so a source
// that recurs only after cap others never pins N words it cannot be
// hit for. A graph of more than math.MaxInt32 vertices admits nothing,
// since its planes would not narrow exactly. Safe for concurrent use.
// A nil planeCache is a valid always-miss cache (caching disabled).
type planeCache struct {
	mu      sync.Mutex
	cap     int
	entries map[int64]*list.Element
	lru     list.List // front = most recently used
	ghosts  map[int64]*list.Element
	ghost   list.List // front = most recently remembered source
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

// get returns the cached plane for source, refreshing the entry's
// recency on hit.
func (c *planeCache) get(source int64) (plane, bool) {
	if c == nil {
		return plane{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[source]
	if !ok {
		return plane{}, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).plane, true
}

// offer hands the cache source's freshly completed search: p's
// scalars, and dist and parent as the traversal returned them. The
// plane is admitted (inserted, or refreshed in place, evicting the
// least recently used entry at capacity) with its vectors narrowed
// when this is at least the source's second sighting: it is resident,
// remembered in the ghost, or repeat says the completion answered more
// than one request. Otherwise only the source is remembered, evicting
// the oldest ghost key at capacity. The narrowing copy is made outside
// the lock, so hits on other sources do not wait for it.
func (c *planeCache) offer(source int64, p plane, dist, parent []int64, repeat bool) {
	if c == nil || !fitsInt32(int64(len(dist))) || !c.admits(source, repeat) {
		return
	}
	p.Dist, p.Parent = narrow(dist), narrow(parent)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[source]; ok {
		el.Value.(*cacheEntry).plane = p
		c.lru.MoveToFront(el)
		return
	}
	// A concurrent first sighting of source may have remembered it
	// since admits dropped its key; residents and ghosts stay disjoint.
	if g, ok := c.ghosts[source]; ok {
		c.ghost.Remove(g)
		delete(c.ghosts, source)
	}
	if c.lru.Len() >= c.cap {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).source)
	}
	c.entries[source] = c.lru.PushFront(&cacheEntry{source: source, plane: p})
}

// admits decides offer's admission for source: true when source is
// resident, was remembered in the ghost (its key is dropped), or
// repeat is set; otherwise it remembers source and returns false.
func (c *planeCache) admits(source int64, repeat bool) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[source]; ok || repeat {
		return true
	}
	if g, ok := c.ghosts[source]; ok {
		c.ghost.Remove(g)
		delete(c.ghosts, source)
		return true
	}
	if c.ghost.Len() >= c.cap {
		oldest := c.ghost.Back()
		c.ghost.Remove(oldest)
		delete(c.ghosts, oldest.Value.(int64))
	}
	c.ghosts[source] = c.ghost.PushFront(source)
	return false
}

// len returns the number of resident planes.
func (c *planeCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// residentBytes returns the resident planes' vector footprint: 4
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
	return 4 * int64(words)
}
