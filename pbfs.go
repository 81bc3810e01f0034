// Package pbfs is a Go reproduction of "Parallel Breadth-First Search on
// Distributed Memory Systems" (Buluç & Madduri, SC 2011): distributed
// BFS with 1D vertex partitioning (Algorithm 2) and 2D sparse-matrix
// partitioning over a process grid (Algorithm 3), in flat and hybrid
// (multithreaded-rank) variants, plus the paper's comparators, workload
// generators, benchmark methodology and performance model. Traversal is
// direction-optimized by default (Options.Direction): the dense middle
// levels of low-diameter graphs run bottom-up, cutting the edges
// examined by an order of magnitude versus the paper's push-only loops.
//
// Ranks are goroutines over an MPI-like collective substrate; execution
// is real (full distributed dataflow, validated against a serial oracle)
// while time is simulated through the paper's Section 5 α-β cost model,
// so results are deterministic and machine-independent. See DESIGN.md for
// the architecture and EXPERIMENTS.md for the paper-vs-reproduction
// record.
//
// Quick start:
//
//	g, _ := pbfs.NewRMATGraph(16, 16, 42)
//	opt := pbfs.Options{Algorithm: pbfs.TwoDHybrid, Ranks: 16, Machine: "hopper"}
//	sess := pbfs.NewSession() // distributes once, reuses scratch across searches
//	defer sess.Close()
//	for _, src := range g.Sources(16, 1) {
//		res, _ := sess.Search(g, src, opt)
//		fmt.Println(res.Levels, res.SimTime)
//	}
//
// One-off searches can use g.BFS(src, opt), which opens and closes a
// private single-search session.
package pbfs

import (
	"fmt"

	"repro/internal/decis"
	"repro/internal/edgefile"
	"repro/internal/graph"
	"repro/internal/graph500"
	"repro/internal/rmat"
	"repro/internal/serial"
	"repro/internal/webgen"
)

// Algorithm selects a BFS implementation.
type Algorithm int

// The paper's four variants plus the two comparator codes.
const (
	OneDFlat Algorithm = iota
	OneDHybrid
	TwoDFlat
	TwoDHybrid
	Reference
	PBGL
)

// String returns the display name used in the paper's figures.
func (a Algorithm) String() string {
	switch a {
	case OneDFlat:
		return "1D Flat MPI"
	case OneDHybrid:
		return "1D Hybrid"
	case TwoDFlat:
		return "2D Flat MPI"
	case TwoDHybrid:
		return "2D Hybrid"
	case Reference:
		return "Graph500 reference"
	case PBGL:
		return "PBGL"
	}
	return "unknown"
}

// Unreached marks unreachable vertices in distance and parent arrays.
const Unreached = serial.Unreached

// Direction selects the per-level traversal policy of the distributed
// drivers (Beamer-style direction optimization).
type Direction int

const (
	// Auto, the default, applies the alpha/beta heuristic per level:
	// the small head and tail levels run top-down (push), the dense
	// middle levels bottom-up (pull), cutting the edges examined on
	// low-diameter graphs by roughly an order of magnitude. Results are
	// oracle-validated BFS trees regardless of the per-level choices.
	Auto Direction = iota
	// TopDownOnly forces the classic push-only level loop — the
	// configuration the source paper evaluates, and the baseline the
	// scanned-edge savings are measured against.
	TopDownOnly
	// BottomUpOnly forces the pull phase on every level; mainly a
	// measurement and testing configuration.
	BottomUpOnly
)

// String returns the direction policy name.
func (d Direction) String() string {
	switch d {
	case Auto:
		return "auto"
	case TopDownOnly:
		return "topdown"
	case BottomUpOnly:
		return "bottomup"
	}
	return "unknown"
}

// Graph is a graph ready for traversal and benchmarking. Graphs are
// undirected (symmetrized) unless built with NewDirectedGraph.
type Graph struct {
	// csr is the sorted, deduplicated adjacency every engine distributes
	// from; the edge list it was built from is not kept.
	csr      *graph.CSR
	directed bool
	// family names the workload family the graph came from ("rmat",
	// "web", "edges", "file", "directed"): the granularity the
	// auto-tuner caches settings at, on the theory that graphs of one
	// family share degree structure and therefore tuned thresholds.
	family string
}

// NewRMATGraph generates a Graph 500 R-MAT graph (a=0.59, b=c=0.19,
// edge factor edges per vertex), randomly relabeled for load balance and
// symmetrized, exactly as the paper's synthetic instances.
func NewRMATGraph(scale, edgeFactor int, seed uint64) (*Graph, error) {
	el, err := rmat.Graph500(scale, edgeFactor, seed).GenerateUndirected()
	if err != nil {
		return nil, err
	}
	return fromEdgeList(el, "rmat")
}

// NewWebCrawlGraph generates a high-diameter (≈140 BFS levels) synthetic
// web crawl standing in for the paper's uk-union dataset.
func NewWebCrawlGraph(numVerts int64, seed uint64) (*Graph, error) {
	el, err := webgen.UKUnionLike(numVerts, seed).GenerateUndirected()
	if err != nil {
		return nil, err
	}
	return fromEdgeList(el, "web")
}

// NewGraphFromEdges builds a graph from explicit undirected edges; each
// pair {u, v} is stored in both directions.
func NewGraphFromEdges(numVerts int64, edges [][2]int64) (*Graph, error) {
	el := &graph.EdgeList{NumVerts: numVerts}
	for _, e := range edges {
		el.Edges = append(el.Edges, graph.Edge{U: e[0], V: e[1]})
	}
	return fromEdgeList(el.Symmetrize(), "edges")
}

// NewGraphFromFile loads a directed binary edge file written by
// cmd/graphgen and symmetrizes it.
func NewGraphFromFile(path string) (*Graph, error) {
	el, err := edgefile.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return fromEdgeList(el.Symmetrize(), "file")
}

// NewDirectedGraph builds a graph from directed edges without
// symmetrizing: BFS then follows edge direction, as the paper notes its
// approaches support ("the BFS approaches can work with directed graphs
// as well", Section 6). Validation of directed results checks distances
// against the serial oracle but skips the undirected level-geometry
// rule.
func NewDirectedGraph(numVerts int64, edges [][2]int64) (*Graph, error) {
	el := &graph.EdgeList{NumVerts: numVerts}
	for _, e := range edges {
		el.Edges = append(el.Edges, graph.Edge{U: e[0], V: e[1]})
	}
	g, err := fromEdgeList(el, "directed")
	if err != nil {
		return nil, err
	}
	g.directed = true
	return g, nil
}

func fromEdgeList(el *graph.EdgeList, family string) (*Graph, error) {
	csr, err := graph.BuildCSR(el, true)
	if err != nil {
		return nil, err
	}
	return &Graph{csr: csr, family: family}, nil
}

// NumVerts returns the vertex count.
func (g *Graph) NumVerts() int64 { return g.csr.NumVerts }

// NumEdges returns the number of undirected edges after deduplication.
func (g *Graph) NumEdges() int64 { return g.csr.NumEdges() / 2 }

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int64) int64 { return g.csr.Degree(v) }

// Neighbors returns the sorted adjacency of v. The returned slice aliases
// internal storage and must not be modified.
func (g *Graph) Neighbors(v int64) []int64 { return g.csr.Neighbors(v) }

// Sources samples up to k Graph 500 search keys: distinct vertices of
// non-zero degree from the largest connected component. For directed
// graphs the component structure follows stored edge direction (forward
// reachability), so sampled keys are guaranteed useful but not
// necessarily mutually reachable.
func (g *Graph) Sources(k int, seed uint64) []int64 {
	return graph500.SelectSources(g.csr, k, seed)
}

// SerialBFS runs the single-threaded reference BFS (Algorithm 1).
func (g *Graph) SerialBFS(source int64) *Result {
	r := serial.BFS(g.csr, source)
	return &Result{
		Source: source, Dist: r.Dist, Parent: r.Parent,
		Levels:         r.MaxLevel(),
		TraversedEdges: r.EdgesTraversed(g.csr) / 2,
	}
}

// Validate checks a BFS result against the Graph 500 validation rules
// and an independently computed serial reference. For directed graphs
// the undirected edge-geometry rule does not apply; distances and tree
// structure are checked against the serial oracle instead.
func (g *Graph) Validate(res *Result) error {
	if res == nil {
		return fmt.Errorf("pbfs: nil result")
	}
	if g.directed {
		ref := serial.BFS(g.csr, res.Source)
		for v := range res.Dist {
			if res.Dist[v] != ref.Dist[v] {
				return fmt.Errorf("pbfs: directed validate: vertex %d dist %d != reference %d",
					v, res.Dist[v], ref.Dist[v])
			}
		}
		return nil
	}
	return graph500.ValidateOutput(g.csr, res.Source, res.Dist, res.Parent)
}

// Directed reports whether the graph was built without symmetrization.
func (g *Graph) Directed() bool { return g.directed }

// Family names the workload family the graph came from ("rmat", "web",
// "edges", "file", "directed") — the key the session's auto-tuner
// caches settings under.
func (g *Graph) Family() string { return g.family }

// Result is a BFS output with its simulated execution profile.
type Result struct {
	Source int64
	Dist   []int64 // BFS level per vertex, Unreached if unreachable
	Parent []int64 // BFS tree parent per vertex, Unreached if unreachable
	Levels int64   // number of frontier expansions that discovered vertices
	// TraversedEdges counts undirected edges incident to reached
	// vertices: the TEPS denominator. It depends only on the reached
	// set, so it is identical across direction policies.
	TraversedEdges int64
	// ScannedTopDown and ScannedBottomUp count the adjacency entries
	// the traversal actually examined, split by phase. A TopDownOnly
	// run scans 2*TraversedEdges entries (both directions of every
	// edge incident to the reached set); direction optimization shows
	// up as ScannedTopDown+ScannedBottomUp dropping well below that.
	ScannedTopDown  int64
	ScannedBottomUp int64
	// SimTime and CommTime are simulated machine seconds (zero when no
	// Machine was configured).
	SimTime  float64
	CommTime float64
	// CommByPhase breaks communication down by collective tag
	// (a2a/expand/fold/transpose/bitmap/allreduce).
	CommByPhase map[string]float64
	// SentWords and RecvWords total the words every rank entered into
	// and received from collectives: the modeled communication volume.
	// Options.Overlap changes when the words move, never how many.
	SentWords, RecvWords int64
	// LevelFrontier, when Options.Trace is set, holds the number of
	// vertices discovered at each level (the frontier-size profile).
	LevelFrontier []int64
	// LevelScanned and LevelBottomUp, when Options.Trace is set on a
	// 1D or 2D run, hold the adjacency entries examined and the
	// traversal direction of every executed iteration (one more entry
	// than LevelFrontier: the final iteration scans but discovers
	// nothing).
	LevelScanned  []int64
	LevelBottomUp []bool
	// LevelCommWords, when Options.Trace is set on a 1D or 2D run,
	// holds the words entered into collectives at each executed
	// iteration, summed over ranks: the per-level communication volume
	// profile, identical for every Options.Overlap setting.
	LevelCommWords []int64
	// Decisions, when Options.Trace is set on a 1D or 2D run, holds
	// the policy decisions the search took — per-level direction
	// switches and overlap-gate verdicts, plus the grid-shape choice
	// when a 2D run derived its grid — each with the globally agreed
	// inputs the heuristic saw and the alternatives it rejected.
	// Session.Counterfactual replays them.
	Decisions []decis.Decision
}

// TEPS returns the traversed-edges-per-second rate of the result.
func (r *Result) TEPS() float64 {
	return graph500.TEPS(r.TraversedEdges, r.SimTime)
}
