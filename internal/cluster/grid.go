package cluster

import "math"

// Grid organizes a world of p = Pr*Pc ranks as a two-dimensional process
// mesh, the layout of the 2D BFS (Section 3.2). Rank r sits at row r/Pc,
// column r%Pc. Rows[i] is the communicator of processor row i (the fold
// Alltoallv runs there); Cols[j] of processor column j (the expand
// Allgatherv and the partitioned bottom-up bitmap exchange run there).
//
// Row and column subcommunicators are full Groups: they carry every
// typed collective, price it on the subgroup size (pc members along a
// row, pr along a column), and book time and volume into the member
// ranks' world ledgers — so World.Reset clears subcommunicator traffic
// too, and Stats/CommTime totals (summed in sorted tag order) include
// it alongside world-group collectives.
type Grid struct {
	Pr, Pc int
	World  *World
	Rows   []*Group
	Cols   []*Group
	All    *Group
}

// ClosestSquare factors p into pr*pc with pr <= pc and pr as close to
// sqrt(p) as possible, the paper's "closest square processor grid".
func ClosestSquare(p int) (pr, pc int) {
	pr = int(math.Sqrt(float64(p)))
	for pr > 1 && p%pr != 0 {
		pr--
	}
	if pr < 1 {
		pr = 1
	}
	return pr, p / pr
}

// NewGrid builds a pr x pc grid over the given world. The world size must
// equal pr*pc.
func NewGrid(w *World, pr, pc int) *Grid {
	if pr*pc != w.P {
		panic("cluster: grid dimensions do not match world size")
	}
	g := &Grid{Pr: pr, Pc: pc, World: w, All: w.WorldGroup()}
	g.Rows = make([]*Group, pr)
	for i := 0; i < pr; i++ {
		members := make([]int, pc)
		for j := 0; j < pc; j++ {
			members[j] = i*pc + j
		}
		g.Rows[i] = w.NewGroup(members)
	}
	g.Cols = make([]*Group, pc)
	for j := 0; j < pc; j++ {
		members := make([]int, pr)
		for i := 0; i < pr; i++ {
			members[i] = i*pc + j
		}
		g.Cols[j] = w.NewGroup(members)
	}
	return g
}

// RowOf returns the grid row of world rank id.
func (g *Grid) RowOf(id int) int { return id / g.Pc }

// ColOf returns the grid column of world rank id.
func (g *Grid) ColOf(id int) int { return id % g.Pc }

// RowGroup returns the row communicator of rank r.
func (g *Grid) RowGroup(r *Rank) *Group { return g.Rows[g.RowOf(r.ID())] }

// ColGroup returns the column communicator of rank r.
func (g *Grid) ColGroup(r *Rank) *Group { return g.Cols[g.ColOf(r.ID())] }

// TransposePeer returns the world rank holding the transposed grid
// position of id: P(i,j) -> P(j,i). It is an involution only on square
// grids, where the paper's TransposeVector is a pairwise exchange; for
// rectangular grids the 2D BFS falls back to an all-to-all exchange
// (Section 3.2 notes the general case involves processor groups of size
// pr + pc).
func (g *Grid) TransposePeer(id int) int {
	i, j := g.RowOf(id), g.ColOf(id)
	return j*g.Pc + i
}

// Square reports whether the grid is square, the configuration used for
// all of the paper's 2D experiments.
func (g *Grid) Square() bool { return g.Pr == g.Pc }
