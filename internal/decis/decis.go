// Package decis defines the decision records of the engine's per-level
// policy heuristics and the force plans that replay them under rejected
// alternatives.
//
// The distributed drivers make every per-level policy decision — the
// guarded alpha/beta direction switch — from globally reduced
// statistics, so every rank computes the identical decision sequence
// and one rank's view of it is canonical. When tracing is on,
// rank 0 records each decision with the inputs the heuristic saw, the
// choice it took, and the alternatives it rejected. The counterfactual
// runner then re-executes the same search with exactly one decision
// forced to a rejected alternative (a Plan), and reports the simulated-
// time delta as that decision's regret: positive regret means the
// heuristic's choice was the cheaper one, negative regret means the
// rejected alternative would have won.
//
// Decisions never affect correctness — distances are bit-identical
// across directions and grid shapes (the conformance
// harness pins this) — so a replay that diverges in distances is an
// engine bug, and the runner asserts it.
package decis

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/dirheur"
)

// Kind names the policy a decision belongs to.
type Kind string

const (
	// KindDirection is one guarded alpha/beta direction-switch
	// decision: at the end of a level, push or pull the next one
	// (dirheur.Machine.Advance).
	KindDirection Kind = "direction"
	// KindGrid is the per-search process-grid shape decision of the 2D
	// algorithms, taken once when the shape is derived from the rank
	// count rather than pinned by the caller.
	KindGrid Kind = "grid"
)

// Decision is one recorded policy decision: the globally-agreed inputs
// the heuristic saw, the choice it took, and the alternatives it
// rejected. Choices are canonical strings — dirheur direction names for
// KindDirection and "PRxPC" shapes for KindGrid — so one table renders every kind and the counterfactual
// runner parses them back.
type Decision struct {
	Kind Kind `json:"kind"`
	// Level is the 1-based level the decision governs: the level a
	// direction choice applies to. Zero for per-search
	// decisions (grid shape).
	Level int64 `json:"level,omitempty"`

	// Frontier is the globally-reduced frontier size the heuristic saw:
	// the vertices discovered into the level's frontier.
	Frontier int64 `json:"frontier,omitempty"`
	// EdgeEst is the scanned-edge estimate: the frontier's adjacency
	// volume mf.
	EdgeEst int64 `json:"edge_est,omitempty"`
	// Unexplored is the remaining unexplored adjacency volume mu the
	// direction rule compared mf*alpha against.
	Unexplored int64 `json:"unexplored,omitempty"`
	// Verts is the vertex total n the direction rule compared nf*beta
	// against (batch-scaled for batched searches).
	Verts int64 `json:"verts,omitempty"`
	// PrevFrontier is the previous level's frontier size prevNf the
	// growth guard compared nf*nf*beta against (as n*prevNf).
	PrevFrontier int64 `json:"prev_frontier,omitempty"`
	// Ranks is the rank count a grid decision factorized.
	Ranks int64 `json:"ranks,omitempty"`

	// Choice is the decision taken; Alternatives are the choices the
	// heuristic rejected, each replayable by the counterfactual runner.
	Choice       string   `json:"choice"`
	Alternatives []string `json:"alternatives,omitempty"`
}

// Plan forces recorded decisions during a counterfactual replay. Dir
// is keyed by the level a forced choice governs; levels absent from
// the plan follow the heuristic as usual, so a one-entry plan flips
// exactly one decision and leaves the heuristic to continue from the
// flipped state. Plans are read-only during a run and shared by every
// rank, so all ranks stay aligned on the forced schedule.
type Plan struct {
	// Dir forces the traversal direction of the given levels. Effective
	// in dirheur.ModeAuto only (the fixed modes are their own force).
	Dir map[int64]dirheur.Direction
}

// ForcedDir returns the forced direction for level, if any.
func (p *Plan) ForcedDir(level int64) (dirheur.Direction, bool) {
	if p == nil || p.Dir == nil {
		return 0, false
	}
	d, ok := p.Dir[level]
	return d, ok
}

// DirChoice renders a direction as its canonical choice string.
func DirChoice(d dirheur.Direction) string { return d.String() }

// ParseDir parses a canonical direction choice string.
func ParseDir(s string) (dirheur.Direction, error) {
	switch s {
	case dirheur.TopDown.String():
		return dirheur.TopDown, nil
	case dirheur.BottomUp.String():
		return dirheur.BottomUp, nil
	}
	return 0, fmt.Errorf("decis: unknown direction choice %q", s)
}

// GridChoice renders a process-grid shape as its canonical choice
// string.
func GridChoice(pr, pc int) string { return fmt.Sprintf("%dx%d", pr, pc) }

// ParseGrid parses a canonical grid choice string.
func ParseGrid(s string) (pr, pc int, err error) {
	r, c, ok := strings.Cut(s, "x")
	if ok {
		pr, err = strconv.Atoi(r)
		if err == nil {
			pc, err = strconv.Atoi(c)
		}
	}
	if !ok || err != nil || pr < 1 || pc < 1 {
		return 0, 0, fmt.Errorf("decis: bad grid choice %q", s)
	}
	return pr, pc, nil
}
