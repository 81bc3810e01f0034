// Package webgen generates synthetic web-crawl-like graphs standing in for
// the uk-union dataset (Boldi & Vigna WebGraph crawls of the .uk domain)
// used in the paper's Figure 11.
//
// The real uk-union graph (n ≈ 133M) is not redistributable here; what
// Figure 11 exercises is not its exact topology but two properties that
// drive the experiment's behaviour:
//
//  1. high diameter (≈ 140), so BFS runs ≈ 140 level-synchronous
//     iterations with many synchronization points and mostly-small
//     frontiers, and
//  2. skewed, host-local degree structure (hubs inside hosts, few
//     cross-host links), so per-level work is uneven.
//
// The generator therefore builds a *layered crawl*: vertices are assigned
// to depth layers 0..Depth-1 (layer sizes ramp up then decay, as in real
// crawls), every vertex beyond layer 0 links to a preferentially-chosen
// parent in the previous layer (guaranteeing connectivity and a BFS depth
// equal to the layer index), and additional intra-layer "host" links plus
// occasional long-range links produce the skewed degree distribution.
package webgen

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/prng"
)

// Params configures the synthetic crawl generator.
type Params struct {
	NumVerts   int64 // total vertex count
	Depth      int   // number of crawl layers; BFS depth from layer 0 is >= Depth-1
	EdgeFactor int   // average directed edges per vertex (before symmetrization)
	HostSize   int   // vertices per "host" cluster used for locality
	Seed       uint64
}

// UKUnionLike returns parameters that mimic uk-union at a reduced size:
// diameter ≈ 140 and average degree ≈ 20.
func UKUnionLike(numVerts int64, seed uint64) Params {
	return Params{NumVerts: numVerts, Depth: 140, EdgeFactor: 20, HostSize: 64, Seed: seed}
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.NumVerts < int64(p.Depth)*2 {
		return fmt.Errorf("webgen: need at least 2 vertices per layer (n=%d, depth=%d)", p.NumVerts, p.Depth)
	}
	if p.Depth < 2 {
		return fmt.Errorf("webgen: depth %d < 2", p.Depth)
	}
	if p.EdgeFactor < 2 {
		return fmt.Errorf("webgen: edge factor %d < 2", p.EdgeFactor)
	}
	if p.HostSize < 2 {
		return fmt.Errorf("webgen: host size %d < 2", p.HostSize)
	}
	return nil
}

// layerBounds returns, for each layer, the first vertex id of that layer;
// the slice has Depth+1 entries so layer L spans [b[L], b[L+1]). Layer
// sizes follow a ramp-up/plateau profile: crawls touch few pages at small
// depth and most pages in a broad middle band.
func (p Params) layerBounds() []int64 {
	weights := make([]float64, p.Depth)
	var total float64
	for l := 0; l < p.Depth; l++ {
		// Ramp linearly for the first 10 layers, then flat. This gives a
		// frontier-size profile similar to published uk-union BFS runs:
		// small head, long heavy middle.
		w := 1.0
		if l < 10 {
			w = float64(l+1) / 10
		}
		weights[l] = w
		total += w
	}
	// Each layer gets one reserved vertex plus its weighted share of the
	// remainder, so every layer is non-empty and the sizes sum exactly to
	// NumVerts.
	bounds := make([]int64, p.Depth+1)
	remaining := p.NumVerts - int64(p.Depth)
	var cum int64
	var acc float64
	for l := 0; l < p.Depth; l++ {
		acc += weights[l]
		target := int64(acc / total * float64(remaining))
		bounds[l+1] = bounds[l] + (target - cum) + 1
		cum = target
	}
	bounds[p.Depth] = p.NumVerts
	return bounds
}

// Generate produces the directed edge list of the crawl.
func (p Params) Generate() (*graph.EdgeList, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	bounds := p.layerBounds()
	g := prng.NewStream(p.Seed, 0x11)
	edges := make([]graph.Edge, 0, p.NumVerts*int64(p.EdgeFactor))

	layerOf := func(v int64) int {
		lo, hi := 0, p.Depth
		for lo+1 < hi {
			mid := (lo + hi) / 2
			if v >= bounds[mid] {
				lo = mid
			} else {
				hi = mid
			}
		}
		return lo
	}

	// Preferential parent choice: raising a uniform sample to the eighth
	// power biases strongly toward low ids within the previous layer,
	// creating hub pages with degrees far above the mean.
	parentIn := func(layer int) int64 {
		lo, hi := bounds[layer], bounds[layer+1]
		span := hi - lo
		f := g.Float64()
		f *= f
		f *= f
		return lo + int64(f*f*float64(span))
	}

	for v := int64(0); v < p.NumVerts; v++ {
		l := layerOf(v)
		if l > 0 {
			// Mandatory discovery link from the previous layer.
			edges = append(edges, graph.Edge{U: parentIn(l - 1), V: v})
		}
		// Host-local links: to vertices in the same host block, clamped to
		// the vertex's own layer so no edge spans more than one layer
		// (host blocks near layer boundaries would otherwise create
		// shortcuts that destroy the crawl's diameter).
		hostBase := v - v%int64(p.HostSize)
		hostEnd := hostBase + int64(p.HostSize)
		if hostBase < bounds[l] {
			hostBase = bounds[l]
		}
		if hostEnd > bounds[l+1] {
			hostEnd = bounds[l+1]
		}
		extra := p.EdgeFactor - 1
		for i := 0; i < extra; i++ {
			r := g.Float64()
			switch {
			case r < 0.70 && hostEnd-hostBase > 1:
				// intra-host link
				t := hostBase + g.Int64n(hostEnd-hostBase)
				if t != v {
					edges = append(edges, graph.Edge{U: v, V: t})
				}
			case r < 0.95 && l > 0:
				// back-link to a hub page in the previous layer. Links never
				// span more than one layer, so after symmetrization the BFS
				// depth from the root remains exactly the layer index.
				edges = append(edges, graph.Edge{U: v, V: parentIn(l - 1)})
			default:
				// cross-host link within the same layer
				lo, hi := bounds[l], bounds[l+1]
				if hi-lo > 1 {
					t := lo + g.Int64n(hi-lo)
					if t != v {
						edges = append(edges, graph.Edge{U: v, V: t})
					}
				}
			}
		}
	}
	return &graph.EdgeList{NumVerts: p.NumVerts, Edges: edges}, nil
}

// GenerateUndirected generates and symmetrizes the crawl.
func (p Params) GenerateUndirected() (*graph.EdgeList, error) {
	el, err := p.Generate()
	if err != nil {
		return nil, err
	}
	return el.Symmetrize(), nil
}
