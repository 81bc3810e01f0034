// Package dirheur implements the direction-optimizing ("Beamer") switch
// heuristic shared by the 1D and 2D distributed BFS drivers: each level
// is traversed either top-down (push: scan the frontier's out-edges) or
// bottom-up (pull: scan unvisited vertices' in-edges, stopping at the
// first frontier parent). The large middle levels of low-diameter graphs
// are an order of magnitude cheaper bottom-up; the small head and tail
// levels are cheaper top-down.
//
// The switch follows Beamer, Asanović and Patterson (SC 2012), which
// Buluç & Madduri's Section 6 identifies as the work-inefficiency left
// on the table by purely top-down level loops. Three rules read the
// globally reduced statistics of the level just finished:
//
//   - alpha (top-down -> bottom-up): mf > mu/alpha, the frontier's
//     out-edge volume mf exceeds a fraction of the unexplored edge
//     volume mu, so pushing would touch more edges than pulling;
//   - growth guard (qualifies alpha): SC 2012 switches only while the
//     frontier is growing. Here that reads nf*nf*beta >= n*prevNf:
//     grown one more level at its current rate nf/prevNf, the frontier
//     must not already meet the beta exit. Without it a long, thin
//     search (a web crawl's tail) whose mu has shrunk below alpha*mf
//     alternates top-down and bottom-up levels, and every bottom-up one
//     scans all the unvisited vertices for a frontier of a few hundred;
//   - beta (bottom-up -> top-down): nf < n/beta, the frontier has shrunk
//     to a sliver of the n vertices, so scanning every unvisited vertex
//     per level no longer pays.
//
// Every rank feeds the machine the same globally-reduced statistics, so
// all ranks take the same decision deterministically and the collective
// schedules stay aligned. The drivers obtain (nf, mf) from one world
// allreduce over their owned discovery lists per level (internal/levels)
// — including on bottom-up levels, where the 2D driver's frontier bitmap
// is partitioned across grid subcommunicators and no rank holds a global
// bitmap to count.
package dirheur

import "math/bits"

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
	// ModeAuto applies the guarded alpha/beta heuristic per level.
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

// The switch thresholds of Beamer et al. They are integers so the
// comparisons below are exact and identical on every rank.
const (
	// alpha triggers the top-down -> bottom-up switch: pull when
	// mf*alpha > mu.
	alpha = 14
	// beta triggers the bottom-up -> top-down switch: push again when
	// nf*beta < n. The growth guard on the alpha rule reads it too.
	beta = 24
)

// Machine is the per-search direction state: the current direction, the
// running count of unexplored edge endpoints and the previous level's
// frontier size. One Machine per rank; every rank advances its copy
// with the same global statistics, so the copies never diverge.
type Machine struct {
	mode   Mode
	n      int64 // total vertices
	mu     int64 // adjacency slots of still-unvisited vertices
	prevNf int64 // frontier size of the previous level
	cur    Direction
}

// New returns a Machine for a graph of n vertices and totalAdj stored
// adjacency slots (the directed edge count of the distributed CSR).
// The search starts from one source, so the level-0 frontier size is 1.
func New(mode Mode, n, totalAdj int64) *Machine {
	m := &Machine{mode: mode, n: n, mu: totalAdj, prevNf: 1}
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
// aggregate frontier thins. Its level-0 frontier is the width sources.
func NewBatch(mode Mode, n, totalAdj int64, width int) *Machine {
	if width < 1 {
		width = 1
	}
	m := New(mode, n*int64(width), totalAdj*int64(width))
	m.prevNf = int64(width)
	return m
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

// PrevFrontier returns the previous level's frontier size, the prevNf
// the growth guard of the next Advance reads.
func (m *Machine) PrevFrontier() int64 { return m.prevNf }

// Force overrides the machine's current direction, as a counterfactual
// replay does when it flips one recorded decision: the next Advance
// applies the switch rules from the forced state, so the heuristic
// continues down the alternative trajectory. The frontier history is
// left alone: Advance already recorded the level's nf. Meaningful in
// ModeAuto only — the fixed modes reassert their direction on every
// Advance.
// Every rank must force identically, like every Advance.
func (m *Machine) Force(d Direction) { m.cur = d }

// Advance consumes the end-of-level global statistics — nf > 0 vertices
// discovered into the next frontier, carrying mf adjacency slots — and
// returns the direction for the next level. mf is subtracted from the
// unexplored volume and nf becomes the next call's prevNf regardless of
// mode, so Unexplored and PrevFrontier stay meaningful for tracing even
// in the fixed-direction modes.
func (m *Machine) Advance(nf, mf int64) Direction {
	m.mu -= mf
	if m.mu < 0 {
		m.mu = 0
	}
	prev := m.prevNf
	m.prevNf = nf
	switch m.mode {
	case ModeTopDown:
		m.cur = TopDown
	case ModeBottomUp:
		m.cur = BottomUp
	case ModeAuto:
		if m.cur == TopDown && mf*alpha > m.mu && m.keepsGrowing(nf, prev) {
			m.cur = BottomUp
		} else if m.cur == BottomUp && nf*beta < m.n {
			m.cur = TopDown
		}
	}
	return m.cur
}

// keepsGrowing is the growth guard: nf*nf*beta >= n*prev, the frontier
// grown one more level at its rate nf/prev still meets no beta exit. The
// products are compared exactly: nf*nf alone overflows int64 at scale
// 32, so the left side is formed in 192 bits and the right in 128.
func (m *Machine) keepsGrowing(nf, prev int64) bool {
	sqHi, sqLo := bits.Mul64(uint64(nf), uint64(nf))
	carryLo, w0 := bits.Mul64(sqLo, beta)
	w2, w1 := bits.Mul64(sqHi, beta)
	w1, carry := bits.Add64(w1, carryLo, 0)
	w2 += carry
	rHi, rLo := bits.Mul64(uint64(m.n), uint64(prev))
	switch {
	case w2 != 0:
		return true
	case w1 != rHi:
		return w1 > rHi
	}
	return w0 >= rLo
}
