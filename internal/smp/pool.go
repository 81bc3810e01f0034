// Package smp provides the intra-rank worker pool of the hybrid
// algorithms: the threads each MPI process runs in the paper's hybrid
// 1D and 2D variants (Section 4.2). Each emulated rank owns one Pool,
// built once per search (or recycled across searches through Team)
// and driven one parallel-for round at a time, so steady-state levels
// spawn no goroutines.
//
// The pool runs with real parallelism. What the hybrid searches cost
// on the simulated clock is set by the drivers' cost model, not by the
// pool's wall-clock speed.
package smp

import (
	"sync"
	"sync/atomic"
)

// Pool is a fixed set of persistent worker goroutines executing indexed
// parallel-for rounds. It is the intra-rank "OpenMP team" of the hybrid
// algorithms: one pool per emulated rank, created once per BFS and reused
// every level, so steady-state levels pay no goroutine spawns and no
// per-round allocations beyond the caller's closure.
//
// A Pool is driven from a single goroutine (its owning rank); Do rounds
// never overlap. Workers claim indices from a shared atomic cursor, which
// load-balances uneven tasks the same way the paper's chunked frontier
// claiming does (Section 4.2).
type Pool struct {
	workers int
	fn      func(int)
	n       int64
	cursor  int64
	start   chan struct{}
	wg      sync.WaitGroup
}

// NewPool starts a pool of the given width. Width 1 (or less) still
// returns a usable pool whose Do runs inline. Close must be called to
// release the workers.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{workers: workers}
	if workers > 1 {
		p.start = make(chan struct{})
		for w := 0; w < workers; w++ {
			go p.work(p.start)
		}
	}
	return p
}

// Width returns the worker count.
func (p *Pool) Width() int {
	if p == nil {
		return 1
	}
	return p.workers
}

func (p *Pool) work(start <-chan struct{}) {
	for range start {
		for {
			i := atomic.AddInt64(&p.cursor, 1) - 1
			if i >= p.n {
				break
			}
			p.fn(int(i))
		}
		p.wg.Done()
	}
}

// Do invokes fn(i) for every i in [0, n), distributing indices over the
// workers, and returns when all calls have completed. A nil or width-1
// pool runs inline in index order. fn must not call Do on the same pool.
func (p *Pool) Do(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if p == nil || p.workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	p.fn = fn
	p.n = int64(n)
	atomic.StoreInt64(&p.cursor, 0)
	p.wg.Add(p.workers)
	for w := 0; w < p.workers; w++ {
		p.start <- struct{}{}
	}
	p.wg.Wait()
	p.fn = nil
}

// Close releases the worker goroutines. The pool must not be used after.
func (p *Pool) Close() {
	if p != nil && p.start != nil {
		close(p.start)
		p.start = nil
	}
}

// Team recycles a worker pool across uses: it returns prev when its
// width already matches, otherwise closes prev (nil-safe) and spawns a
// fresh pool. This is the one place pool-recycling policy lives; the
// BFS drivers' arenas call it per rank.
func Team(prev *Pool, width int) *Pool {
	if prev != nil && prev.Width() == width {
		return prev
	}
	prev.Close()
	return NewPool(width)
}
