// Package levels holds the parts of a level-synchronous distributed BFS
// that do not depend on the driver: the output types, the per-level
// trace, the end-of-level termination test and direction step, the
// hybrid strip charge, and the batch drivers' output planes (batch.go).
//
// Every driver runs the same loop: expand, multiply, fold, commit, then
// a global termination test. The 1D and 2D layouts differ in how a level
// moves words, and the batched drivers in what a level carries (a
// uint64 mask of searches instead of one parent), but the bookkeeping
// around the loop is the same and is written here once. The level's end
// issues one world allreduce, as in the paper's loop: under
// dirheur.ModeAuto it carries the direction heuristic's edge volume
// beside the discovery count, so a level pays one latency term.
package levels

import (
	"repro/internal/cluster"
	"repro/internal/decis"
	"repro/internal/dirheur"
)

// ThreadBarrierOps approximates the instruction cost of one intra-node
// thread barrier in model operations; a hybrid rank pays a driver-fixed
// number of them per phase (Algorithm 2 lines 17, 20, 22 in 1D).
const ThreadBarrierOps = 4000

// ChargeHybrid charges one phase of a t-thread rank: the parallel work
// par split across the threads, plus, when t > 1, the serial merge
// streaming serialWords and the phase's thread barriers. The flat
// variant (t = 1) pays par alone.
func ChargeHybrid(r *cluster.Rank, price cluster.Pricer, t int, par float64, serialWords, barriers int64) {
	serialOverhead := 0.0
	if t > 1 {
		serialOverhead = price.MemCost(0, 0, serialWords, barriers*ThreadBarrierOps)
	}
	r.Charge(par/float64(t) + serialOverhead)
}

// Profile is the execution profile every driver reports beside its
// answers.
type Profile struct {
	// ScannedTopDown and ScannedBottomUp count the adjacency (or matrix)
	// entries each traversal phase actually examined, summed over ranks;
	// a batch counts one scan serving many searches once. The work the
	// direction-optimizing heuristic saves shows up as their sum
	// dropping well below the top-down-only total.
	ScannedTopDown  int64
	ScannedBottomUp int64
	// LevelFrontier, when tracing, holds the vertices discovered at each
	// level (index 0 = level 1; the sources are not counted). A batch
	// counts (vertex, search) discoveries.
	LevelFrontier []int64
	// LevelScanned and LevelBottomUp, when tracing, hold the global
	// scanned-entry count and the direction of every executed iteration.
	// They have one more entry than LevelFrontier: the final iteration
	// scans but discovers nothing.
	LevelScanned  []int64
	LevelBottomUp []bool
	// LevelCommWords, when tracing, holds the words entered into
	// collectives at each executed iteration, summed over ranks: the
	// per-level communication volume profile.
	LevelCommWords []int64
	// Decisions, when tracing, holds the direction decisions the run
	// took with the globally agreed inputs the heuristic saw. Rank 0
	// records them: every rank computes the identical sequence from the
	// same reduced statistics.
	Decisions []decis.Decision
}

// Output is the assembled result of one distributed search.
type Output struct {
	Source int64
	Dist   []int64 // global distance array, serial.Unreached if unreachable
	Parent []int64 // global parent array
	Levels int64   // discovering levels (the source's eccentricity when connected)
	// TraversedEdges is the sum of stored degrees over reached vertices:
	// the quantity the TEPS metric normalizes against (halved for
	// symmetrized graphs by the callers).
	TraversedEdges int64
	Profile
}

// Loop is the driver-independent state of one run's level loop: the
// per-rank trace slots, rank 0's globally agreed series, and the plan a
// counterfactual replay forces. Rank goroutines share one Loop; each
// writes only its own slot, so recording takes no lock.
type Loop struct {
	world *cluster.Group
	trace bool
	force *decis.Plan
	ranks []rankSlot
	prof  Profile // rank 0's series: frontier, directions, decisions
}

// rankSlot is one rank's share of the profile.
type rankSlot struct {
	td, bu        int64
	scanned, comm []int64 // per executed iteration, when tracing
	prevSent      int64   // sent-volume cursor at the last iteration
}

// New returns the level-loop state of one run on w. With trace set the
// loop records the per-level profile and the decisions; force, when
// non-nil, overrides the direction decisions it names (the batch
// drivers pass nil).
func New(w *cluster.World, trace bool, force *decis.Plan) *Loop {
	return &Loop{world: w.WorldGroup(), trace: trace, force: force, ranks: make([]rankSlot, w.P)}
}

// Level records one executed iteration of rank r: scanned entries
// examined in direction dir, after the termination test reduced the
// level's global discoveries to found. Drivers without a direction
// heuristic call it after their own termination test; the others end
// each level through End or EndCounted, which record it.
func (lp *Loop) Level(r *cluster.Rank, dir dirheur.Direction, scanned, found int64) {
	me := r.ID()
	s := &lp.ranks[me]
	if dir == dirheur.BottomUp {
		s.bu += scanned
	} else {
		s.td += scanned
	}
	if !lp.trace {
		return
	}
	s.scanned = append(s.scanned, scanned)
	sent, _ := r.Volumes()
	s.comm = append(s.comm, sent-s.prevSent)
	s.prevSent = sent
	if me == 0 {
		lp.prof.LevelBottomUp = append(lp.prof.LevelBottomUp, dir == dirheur.BottomUp)
		if found > 0 {
			lp.prof.LevelFrontier = append(lp.prof.LevelFrontier, found)
		}
	}
}

// End ends rank r's iteration level, run in dirm's direction with
// scanned entries examined, that discovered found vertices on this rank
// carrying mf adjacency slots. It is the level's termination test and
// direction step in one collective: under dirheur.ModeAuto one two-word
// world allreduce sums (found, mf); the fixed modes need no mf and sum
// found alone. It records the iteration and returns the global
// discoveries and, when they are non-zero, the direction of level+1.
func (lp *Loop) End(r *cluster.Rank, dirm *dirheur.Machine, level, scanned, found, mf int64) (int64, dirheur.Direction) {
	if dirm.Mode() == dirheur.ModeAuto {
		found, mf = lp.world.AllreduceSum2(r, found, mf, "allreduce")
	} else {
		found = lp.world.AllreduceSum(r, found, "allreduce")
	}
	return found, lp.step(r, dirm, level, scanned, found, mf)
}

// EndCounted is End for a level whose global discoveries every rank has
// already counted (the 1D bottom-up level counts its assembled frontier
// bitmap): found is that global count, so only mf is reduced, and only
// under dirheur.ModeAuto while the search goes on.
func (lp *Loop) EndCounted(r *cluster.Rank, dirm *dirheur.Machine, level, scanned, found, mf int64) (int64, dirheur.Direction) {
	if found > 0 && dirm.Mode() == dirheur.ModeAuto {
		mf = lp.world.AllreduceSum(r, mf, "allreduce")
	}
	return found, lp.step(r, dirm, level, scanned, found, mf)
}

// step records the iteration and, when it discovered found > 0 vertices
// carrying mf global adjacency slots, returns the direction of level+1.
// Under dirheur.ModeAuto it advances the heuristic, applies a forced
// replay choice, and on rank 0 records the decision; the fixed modes
// keep their direction.
func (lp *Loop) step(r *cluster.Rank, dirm *dirheur.Machine, level, scanned, found, mf int64) dirheur.Direction {
	lp.Level(r, dirm.Direction(), scanned, found)
	if found == 0 || dirm.Mode() != dirheur.ModeAuto {
		return dirm.Direction()
	}
	prev := dirm.PrevFrontier()
	next := dirm.Advance(found, mf)
	if d, ok := lp.force.ForcedDir(level + 1); ok {
		next = d
		dirm.Force(d)
	}
	if lp.trace && r.ID() == 0 {
		alt := dirheur.TopDown
		if next == dirheur.TopDown {
			alt = dirheur.BottomUp
		}
		lp.prof.Decisions = append(lp.prof.Decisions, decis.Decision{
			Kind: decis.KindDirection, Level: level + 1,
			Frontier: found, EdgeEst: mf,
			Unexplored: dirm.Unexplored(), Verts: dirm.Verts(), PrevFrontier: prev,
			Choice:       decis.DirChoice(next),
			Alternatives: []string{decis.DirChoice(alt)},
		})
	}
	return next
}

// Fill sums the rank slots into prof once the ranks have finished.
func (lp *Loop) Fill(prof *Profile) {
	for i := range lp.ranks {
		prof.ScannedTopDown += lp.ranks[i].td
		prof.ScannedBottomUp += lp.ranks[i].bu
	}
	if !lp.trace {
		return
	}
	prof.LevelFrontier = lp.prof.LevelFrontier
	prof.LevelBottomUp = lp.prof.LevelBottomUp
	prof.Decisions = lp.prof.Decisions
	prof.LevelScanned = make([]int64, len(lp.ranks[0].scanned))
	prof.LevelCommWords = make([]int64, len(lp.ranks[0].comm))
	for i := range lp.ranks {
		for l, s := range lp.ranks[i].scanned {
			prof.LevelScanned[l] += s
		}
		for l, c := range lp.ranks[i].comm {
			prof.LevelCommWords[l] += c
		}
	}
}
