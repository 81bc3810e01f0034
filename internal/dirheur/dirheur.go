// Package dirheur implements the direction-optimizing ("Beamer") switch
// heuristic shared by the 1D and 2D distributed BFS drivers: each level
// is traversed either top-down (push: scan the frontier's out-edges) or
// bottom-up (pull: scan unvisited vertices' in-edges, stopping at the
// first frontier parent). The large middle levels of low-diameter graphs
// are an order of magnitude cheaper bottom-up; the small head and tail
// levels are cheaper top-down.
//
// The switch rule is the classic alpha/beta pair of Beamer, Asanović and
// Patterson (SC 2012), which Buluç & Madduri's Section 6 identifies as
// the work-inefficiency left on the table by purely top-down level
// loops:
//
//   - top-down -> bottom-up when mf > mu/alpha: the frontier's
//     out-edge volume mf exceeds a fraction of the unexplored edge
//     volume mu, so pushing would touch more edges than pulling;
//   - bottom-up -> top-down when nf < n/beta: the frontier has shrunk
//     to a sliver of the n vertices, so scanning every unvisited vertex
//     per level no longer pays.
//
// Every rank feeds the machine the same globally-reduced statistics, so
// all ranks take the same decision deterministically and the collective
// schedules stay aligned. Both drivers obtain (nf, mf) from world-wide
// allreduces over their owned discovery lists — including on bottom-up
// levels, where the 2D driver's frontier bitmap is partitioned across
// grid subcommunicators and no rank holds a global bitmap to count.
package dirheur

// Direction is the traversal direction of one BFS level.
type Direction int

const (
	// TopDown pushes: frontier vertices scan their out-edges and claim
	// unvisited targets (Algorithms 2 and 3 of the source paper).
	TopDown Direction = iota
	// BottomUp pulls: unvisited vertices scan their in-edges and adopt
	// the first parent found in the frontier bitmap.
	BottomUp
)

// String returns the short phase label used in traces and benchmarks.
func (d Direction) String() string {
	if d == BottomUp {
		return "bottom-up"
	}
	return "top-down"
}

// Mode is the driver-level direction policy.
type Mode int

const (
	// ModeTopDown (the zero value) runs every level top-down: the
	// legacy behaviour of the drivers, and the baseline the scanned-edge
	// savings are measured against.
	ModeTopDown Mode = iota
	// ModeBottomUp runs every level after the source bottom-up; mainly
	// a test and measurement configuration.
	ModeBottomUp
	// ModeAuto applies the alpha/beta heuristic per level.
	ModeAuto
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case ModeTopDown:
		return "topdown"
	case ModeBottomUp:
		return "bottomup"
	case ModeAuto:
		return "auto"
	}
	return "unknown"
}

// Policy holds the switch thresholds. Alpha and Beta are the paper
// values of Beamer et al.; they are deliberately integers so the
// comparisons below are exact and identical on every rank.
type Policy struct {
	// Alpha triggers the top-down -> bottom-up switch: pull when
	// mf*Alpha > mu.
	Alpha int64
	// Beta triggers the bottom-up -> top-down switch: push again when
	// nf*Beta < n.
	Beta int64
}

// DefaultPolicy returns the published thresholds (alpha 14, beta 24).
func DefaultPolicy() Policy { return Policy{Alpha: 14, Beta: 24} }

// Machine is the per-search direction state: the current direction and
// the running count of unexplored edge endpoints. One Machine per rank;
// every rank advances its copy with the same global statistics, so the
// copies never diverge.
type Machine struct {
	policy Policy
	mode   Mode
	n      int64 // total vertices
	mu     int64 // adjacency slots of still-unvisited vertices
	cur    Direction
}

// New returns a Machine for a graph of n vertices and totalAdj stored
// adjacency slots (the directed edge count of the distributed CSR).
// A zero policy field falls back to the default threshold.
func New(mode Mode, pol Policy, n, totalAdj int64) *Machine {
	if pol.Alpha <= 0 {
		pol.Alpha = DefaultPolicy().Alpha
	}
	if pol.Beta <= 0 {
		pol.Beta = DefaultPolicy().Beta
	}
	m := &Machine{policy: pol, mode: mode, n: n, mu: totalAdj}
	if mode == ModeBottomUp {
		m.cur = BottomUp
	}
	return m
}

// NewBatch returns a Machine for a batched (multi-source) BFS of the
// given width: the whole batch runs one direction per level, chosen
// from aggregate statistics — the per-search quantities summed over the
// active searches — against a problem scaled by the batch width. A
// width-w batch of overlapping searches behaves like one search on a
// graph w times larger: the switch fires when the aggregate frontier
// volume crosses the same fraction of the aggregate unexplored volume,
// so a batch whose searches are mostly in their heavy middle levels
// pulls, and retires back to pushing as searches complete and the
// aggregate frontier thins.
func NewBatch(mode Mode, pol Policy, n, totalAdj int64, width int) *Machine {
	if width < 1 {
		width = 1
	}
	return New(mode, pol, n*int64(width), totalAdj*int64(width))
}

// Direction returns the direction the next level should run in.
func (m *Machine) Direction() Direction { return m.cur }

// Mode returns the policy the machine was built with.
func (m *Machine) Mode() Mode { return m.mode }

// Unexplored returns the remaining unexplored adjacency volume mu.
func (m *Machine) Unexplored() int64 { return m.mu }

// Verts returns the vertex total n the beta rule compares against
// (batch-scaled for machines built with NewBatch).
func (m *Machine) Verts() int64 { return m.n }

// Thresholds returns the alpha/beta policy in force, with zero fields
// already resolved to the defaults.
func (m *Machine) Thresholds() Policy { return m.policy }

// Force overrides the machine's current direction, as a counterfactual
// replay does when it flips one recorded decision: the next Advance
// applies the switch rules from the forced state, so the heuristic
// continues down the alternative trajectory. Meaningful in ModeAuto
// only — the fixed modes reassert their direction on every Advance.
// Every rank must force identically, like every Advance.
func (m *Machine) Force(d Direction) { m.cur = d }

// Advance consumes the end-of-level global statistics — nf vertices
// discovered into the next frontier, carrying mf adjacency slots — and
// returns the direction for the next level. mf is subtracted from the
// unexplored volume regardless of mode, so Unexplored stays meaningful
// for tracing even in the fixed-direction modes.
func (m *Machine) Advance(nf, mf int64) Direction {
	m.mu -= mf
	if m.mu < 0 {
		m.mu = 0
	}
	switch m.mode {
	case ModeTopDown:
		m.cur = TopDown
	case ModeBottomUp:
		m.cur = BottomUp
	case ModeAuto:
		if m.cur == TopDown && mf*m.policy.Alpha > m.mu {
			m.cur = BottomUp
		} else if m.cur == BottomUp && nf*m.policy.Beta < m.n {
			m.cur = TopDown
		}
	}
	return m.cur
}
