// Package rmat implements the R-MAT recursive Kronecker graph generator
// (Chakrabarti, Zhan, Faloutsos 2004) with the Graph 500 parameterization
// used throughout the paper: a=0.59, b=0.19, c=0.19, d=0.05, edgefactor 16.
//
// The generator is deterministic in (seed, scale, edgefactor) and can be
// produced in independent slices, so distributed ranks can each generate
// their share of the edge list without communication — mirroring how the
// Graph 500 reference code generates graphs in parallel.
package rmat

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/graph"
	"repro/internal/prng"
)

// Params configures an R-MAT generator.
type Params struct {
	Scale      int     // log2 of the number of vertices
	EdgeFactor int     // edges per vertex (before symmetrization)
	A, B, C, D float64 // quadrant probabilities; must sum to 1
	Seed       uint64
	// Noise perturbs the quadrant probabilities per recursion level, as the
	// Graph 500 v2 generator does, to avoid degenerate degree spikes.
	// Zero disables perturbation.
	Noise float64
}

// Graph500 returns the parameterization the paper uses: the Graph 500
// defaults with the requested scale and edge factor. The paper quotes
// (a,b,c,d) = (0.59, 0.19, 0.19, 0.05), which sums to 1.02; as in the
// Graph 500 reference generator, d is actually the remainder 1-a-b-c, so
// we use d = 0.03 to keep a, b and c exactly as published.
func Graph500(scale, edgeFactor int, seed uint64) Params {
	const a, b, c = 0.59, 0.19, 0.19
	return Params{
		Scale:      scale,
		EdgeFactor: edgeFactor,
		A:          a, B: b, C: c, D: 1 - a - b - c,
		Seed:  seed,
		Noise: 0.05,
	}
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.Scale < 1 || p.Scale > 62 {
		return fmt.Errorf("rmat: scale %d out of range [1,62]", p.Scale)
	}
	if p.EdgeFactor < 1 {
		return fmt.Errorf("rmat: edge factor %d < 1", p.EdgeFactor)
	}
	// NumEdges counts EdgeFactor·2^Scale edges in an int64.
	if maxEF := int64(math.MaxInt64) >> p.Scale; int64(p.EdgeFactor) > maxEF {
		return fmt.Errorf("rmat: edge factor %d above %d, the most whose edge count fits an int64 at scale %d",
			p.EdgeFactor, maxEF, p.Scale)
	}
	sum := p.A + p.B + p.C + p.D
	if sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("rmat: probabilities sum to %g, want 1", sum)
	}
	return nil
}

// NumVerts returns 2^Scale.
func (p Params) NumVerts() int64 { return int64(1) << uint(p.Scale) }

// NumEdges returns EdgeFactor * 2^Scale.
func (p Params) NumEdges() int64 { return int64(p.EdgeFactor) << uint(p.Scale) }

// Edge generates the i-th edge of the deterministic sequence. Each edge
// gets its own PRNG stream derived from (Seed, i), so any sub-range can be
// generated independently and the result does not depend on the number of
// generating workers.
func (p Params) Edge(i int64) graph.Edge {
	g := prng.NewStream(p.Seed, uint64(i))
	var u, v int64
	a, b, c := p.A, p.B, p.C
	for level := 0; level < p.Scale; level++ {
		aa, bb, cc := a, b, c
		if p.Noise != 0 {
			// Symmetric multiplicative noise, renormalized. Keeps the
			// expectation at (a,b,c,d) while breaking exact self-similarity.
			na := aa * (1 - p.Noise + 2*p.Noise*g.Float64())
			nb := bb * (1 - p.Noise + 2*p.Noise*g.Float64())
			nc := cc * (1 - p.Noise + 2*p.Noise*g.Float64())
			nd := (1 - aa - bb - cc) * (1 - p.Noise + 2*p.Noise*g.Float64())
			s := na + nb + nc + nd
			aa, bb, cc = na/s, nb/s, nc/s
		}
		r := g.Float64()
		u <<= 1
		v <<= 1
		switch {
		case r < aa:
			// top-left quadrant: no bits set
		case r < aa+bb:
			v |= 1
		case r < aa+bb+cc:
			u |= 1
		default:
			u |= 1
			v |= 1
		}
	}
	return graph.Edge{U: u, V: v}
}

// Generate produces the complete edge list (directed; callers symmetrize
// for undirected benchmarks).
func (p Params) Generate() (*graph.EdgeList, error) {
	return p.GenerateRange(0, p.NumEdges())
}

// minChunk is the fewest edges worth a generator goroutine.
const minChunk = 1 << 12

// GenerateRange produces edges [lo, hi) of the deterministic sequence.
// Up to GOMAXPROCS workers fill disjoint chunks of one preallocated
// slice; every edge draws from its own stream, so the result does not
// depend on the worker count.
func (p Params) GenerateRange(lo, hi int64) (*graph.EdgeList, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if lo < 0 || hi < lo || hi > p.NumEdges() {
		return nil, fmt.Errorf("rmat: range [%d,%d) out of bounds [0,%d)", lo, hi, p.NumEdges())
	}
	edges := make([]graph.Edge, hi-lo)
	workers := int64(runtime.GOMAXPROCS(0))
	if most := (hi - lo + minChunk - 1) / minChunk; workers > most {
		workers = most
	}
	var wg sync.WaitGroup
	for w := int64(0); w < workers; w++ {
		a, b := w*(hi-lo)/workers, (w+1)*(hi-lo)/workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := a; k < b; k++ {
				edges[k] = p.Edge(lo + k)
			}
		}()
	}
	wg.Wait()
	return &graph.EdgeList{NumVerts: p.NumVerts(), Edges: edges}, nil
}

// Permutation returns the random vertex relabeling used for load balance
// (paper Section 4.4), deterministic in the seed.
func (p Params) Permutation() []int64 {
	g := prng.NewStream(p.Seed, 0xfeedface)
	return g.Perm(p.NumVerts())
}

// GenerateUndirected is the convenience path used by the benchmarks:
// generate, relabel randomly, and symmetrize.
func (p Params) GenerateUndirected() (*graph.EdgeList, error) {
	el, err := p.Generate()
	if err != nil {
		return nil, err
	}
	if err := graph.RelabelEdges(el, p.Permutation()); err != nil {
		return nil, err
	}
	return el.Symmetrize(), nil
}
