package pbfs

import "repro/internal/decis"

// Options configures a distributed BFS run. The layout fields
// (Algorithm, Ranks, GridRows/GridCols, Threads, Machine) select an
// engine — a distributed graph, world/grid, and scratch arenas that a
// Session caches across searches — while Direction and Trace vary
// freely per search on the same engine. The 2D variants run
// the auto-selected SpMSV kernel with the 2D vector distribution; the
// paper's kernel and vector-layout ablations (Figures 3 and 4) are
// reproduced by internal/bench against the drivers directly.
type Options struct {
	// Algorithm selects the implementation; the zero value is OneDFlat.
	Algorithm Algorithm
	// Ranks is the number of emulated processes. Zero defaults to
	// GridRows*GridCols when both are set, else 4. The 2D algorithms
	// arrange the ranks on a pr×pc process grid: the closest square
	// factorization of Ranks by default (cluster.ClosestSquare), or
	// the explicit GridRows×GridCols shape when set.
	Ranks int
	// GridRows and GridCols select the 2D process grid shape. Zero
	// means "derive": both zero picks the closest square factorization
	// of Ranks; one zero divides Ranks by the other. When both are set,
	// GridRows*GridCols must equal Ranks. Ignored by the non-2D
	// algorithms.
	GridRows, GridCols int
	// Threads is the intra-rank threading width for hybrid variants; 0
	// picks the machine profile's default (or 4 without a machine).
	Threads int
	// Machine names the cost-model profile ("franklin", "hopper",
	// "carver") used to charge simulated time. Empty runs without time
	// accounting (pure correctness).
	Machine string
	// Direction selects the per-level traversal policy for the 1D and
	// 2D algorithms; the zero value is Auto (direction-optimized). The
	// Reference and PBGL comparators are top-down by construction and
	// ignore it.
	Direction Direction
	// Trace records the per-level discovery counts into the result,
	// and with them the policy decisions the heuristics took
	// (Result.Decisions): direction switches and (for derived 2D
	// grids) the grid-shape choice, each with the globally agreed
	// inputs it saw and the alternatives it rejected. The Reference
	// and PBGL comparators do not record a level profile yet: their
	// results leave every Level* series empty under Trace.
	Trace bool

	// force replays recorded decisions under rejected alternatives; it
	// is set only by the counterfactual runner (Session.Counterfactual).
	force *decis.Plan
}

// BFS runs a distributed breadth-first search from source under the
// given options and returns the assembled result. It opens a one-shot
// session — distribution and scratch are built, used once, and
// released. Callers running several searches under the same
// configuration (the Graph 500 protocol) should hold a Session open
// instead and pay that setup once.
func (g *Graph) BFS(source int64, opt Options) (*Result, error) {
	s := NewSession()
	defer s.Close()
	return s.Search(g, source, opt)
}
