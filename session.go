package pbfs

import (
	"fmt"
	"sync"
)

// Session amortizes per-configuration setup across searches. The
// Graph 500 methodology (paper Section 7) times 16-64 searches per
// configuration; a one-shot Graph.BFS pays graph distribution, world
// construction, and scratch allocation on every call, while a session
// pays them once and reuses them:
//
//	sess := pbfs.NewSession()
//	defer sess.Close()
//	for _, src := range g.Sources(16, 1) {
//		res, err := sess.Search(g, src, opt)
//		...
//	}
//
// Internally a session caches one engine per distinct layout — the
// resolved (algorithm, ranks, grid shape, threads, machine) tuple. An
// engine owns its distributed graph (with the bottom-up phase's
// lazily-built pull structures), its world and grid communicators, and
// its cross-search scratch arenas. Changing only
// per-search fields (Direction, Trace) between searches
// reuses the cached engine; changing a layout field builds and caches
// another; searching a different *Graph under a cached layout rebuilds
// just that engine's distribution, keeping its world and arenas (the
// arenas resize lazily). Results are bit-identical to one-shot BFS
// calls under the same options.
//
// A session is safe for concurrent use; searches are serialized (each
// engine's arena serves one run at a time). Close releases the worker
// goroutines held by hybrid engines' arenas; the session must not be
// used afterwards.
type Session struct {
	mu      sync.Mutex
	engines map[layout]engine
	closed  bool
}

// NewSession returns an empty session; engines are built on demand by
// the first Search with each configuration.
func NewSession() *Session {
	return &Session{engines: make(map[layout]engine)}
}

// Search runs one distributed BFS from source on g under opt, reusing
// the session's cached engine for opt's configuration when present. It
// is Graph.BFS with the setup amortized away.
func (s *Session) Search(g *Graph, source int64, opt Options) (*Result, error) {
	if g == nil {
		return nil, fmt.Errorf("pbfs: nil graph")
	}
	if source < 0 || source >= g.NumVerts() {
		return nil, fmt.Errorf("pbfs: source %d out of range [0,%d)", source, g.NumVerts())
	}
	lay, err := resolveLayout(opt)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	eng, err := s.engineLocked(lay, g)
	if err != nil {
		return nil, err
	}
	return eng.search(source, opt)
}

// engineLocked returns the cached engine for lay bound to g, building or
// rebinding as needed. The caller holds s.mu.
func (s *Session) engineLocked(lay layout, g *Graph) (engine, error) {
	if s.closed {
		return nil, fmt.Errorf("pbfs: session is closed")
	}
	eng, ok := s.engines[lay]
	switch {
	case !ok:
		var err error
		if eng, err = newEngine(lay, g); err != nil {
			return nil, err
		}
		s.engines[lay] = eng
	case eng.boundTo() != g:
		if err := eng.rebind(g); err != nil {
			return nil, err
		}
	}
	return eng, nil
}

// SessionPool is a fixed-size pool of sessions for callers that keep
// several batches in flight at once. One Session serializes its
// searches (each engine's arena serves one run at a time), so a server
// wanting K concurrent batches checks out K sessions; Get blocks until
// one is free, which is the pool's concurrency limit. Every member
// session caches its own engine per resolved configuration, each built
// from the Graph's one CSR in linear passes. The 1D members' local
// graphs alias that CSR's adjacency, so a pool of K copies only row
// offsets K times; the 2D members each hold their own DCSC blocks.
type SessionPool struct {
	ch   chan *Session
	once sync.Once
}

// NewSessionPool returns a pool of size warm-free sessions (sizes below
// 1 are raised to 1); engines are built on demand by the first batch
// each member runs.
func NewSessionPool(size int) *SessionPool {
	if size < 1 {
		size = 1
	}
	p := &SessionPool{ch: make(chan *Session, size)}
	for i := 0; i < size; i++ {
		p.ch <- NewSession()
	}
	return p
}

// Size returns the pool's capacity: the maximum number of concurrently
// checked-out sessions.
func (p *SessionPool) Size() int { return cap(p.ch) }

// Get checks a session out, blocking until one is free. Every Get must
// be paired with a Put.
func (p *SessionPool) Get() *Session { return <-p.ch }

// TryGet checks a session out if one is free and returns nil, without
// blocking, when every session is checked out. A non-nil result must be
// paired with a Put.
func (p *SessionPool) TryGet() *Session {
	select {
	case s := <-p.ch:
		return s
	default:
		return nil
	}
}

// Put returns a checked-out session to the pool, keeping its cached
// engines warm for the next borrower.
func (p *SessionPool) Put(s *Session) { p.ch <- s }

// Close releases every member session. All checked-out sessions must
// have been returned first (the pool blocks until they are); Close is
// idempotent.
func (p *SessionPool) Close() {
	p.once.Do(func() {
		for i := 0; i < cap(p.ch); i++ {
			(<-p.ch).Close()
		}
	})
}

// Close releases every cached engine (worker-pool goroutines, arenas).
// The session cannot be reused; Search after Close returns an error.
func (s *Session) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	for key, eng := range s.engines {
		eng.close()
		delete(s.engines, key)
	}
}
