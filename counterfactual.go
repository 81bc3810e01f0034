package pbfs

import (
	"fmt"

	"repro/internal/decis"
	"repro/internal/dirheur"
)

// Counterfactual is one replayed alternative of one recorded decision:
// the same search re-executed with exactly that decision forced to the
// choice the heuristic rejected, everything else left to the heuristic.
// Distances are bit-identical by construction (the runner asserts it);
// only the simulated clock moves, and Regret is how far.
type Counterfactual struct {
	Decision    decis.Decision `json:"decision"`
	Alternative string         `json:"alternative"`
	BaseSim     float64        `json:"base_sim_sec"`
	AltSim      float64        `json:"alt_sim_sec"`
	// Regret is AltSim - BaseSim in simulated seconds: positive means
	// the recorded choice was the cheaper one (the heuristic was
	// right), negative means the rejected alternative would have won
	// by that much (CounterfactualReport.MaxNegativeRegret finds the
	// worst such loss per decision kind).
	Regret float64 `json:"regret_sec"`
}

// CounterfactualReport is the full regret analysis of one search: the
// recorded decision sequence and one replay per rejected alternative.
type CounterfactualReport struct {
	Source    int64            `json:"source"`
	BaseSim   float64          `json:"base_sim_sec"`
	Decisions []decis.Decision `json:"decisions"`
	Replays   []Counterfactual `json:"replays"`
}

// MaxNegativeRegret returns the most negative regret in the report per
// decision kind: how much simulated time the worst heuristic miss of
// each kind left on the table (zero when the heuristic never lost).
func (rep *CounterfactualReport) MaxNegativeRegret() map[decis.Kind]float64 {
	worst := make(map[decis.Kind]float64)
	for _, cf := range rep.Replays {
		if cf.Regret < worst[cf.Decision.Kind] {
			worst[cf.Decision.Kind] = cf.Regret
		}
	}
	return worst
}

// Counterfactual records one search's policy decisions and replays each
// rejected alternative through the session's deterministic engines: the
// base search runs with tracing on, then every decision is flipped —
// one at a time — to each alternative it rejected (a forced direction
// or an alternate grid shape) and the search re-runs
// under the flip. Replays assert bit-identical distances (decisions
// never affect correctness; a divergence is an engine bug and returns
// an error) and report per-decision regret as the simulated-time delta.
//
// opt must name a Machine profile — without a clock there is no regret
// to measure. Grid alternatives re-resolve to their own engines, so a
// 2D counterfactual on a fresh session pays one distribution per
// distinct shape; they stay cached for later searches on the session.
func (s *Session) Counterfactual(g *Graph, source int64, opt Options) (*CounterfactualReport, error) {
	if opt.Machine == "" {
		return nil, fmt.Errorf("pbfs: counterfactual replay requires a Machine profile (no clock, no regret)")
	}
	topt := opt
	topt.Trace = true
	topt.force = nil
	base, err := s.Search(g, source, topt)
	if err != nil {
		return nil, err
	}
	rep := &CounterfactualReport{
		Source: source, BaseSim: base.SimTime, Decisions: base.Decisions,
	}
	for _, d := range base.Decisions {
		for _, alt := range d.Alternatives {
			fopt, err := forcedOptions(opt, d, alt)
			if err != nil {
				return nil, err
			}
			forced, err := s.Search(g, source, fopt)
			if err != nil {
				return nil, err
			}
			if v := diffDist(base.Dist, forced.Dist); v >= 0 {
				return nil, fmt.Errorf(
					"pbfs: counterfactual replay diverged: %s decision (level %d) forced to %q changed the distance of vertex %d",
					d.Kind, d.Level, alt, v)
			}
			rep.Replays = append(rep.Replays, Counterfactual{
				Decision: d, Alternative: alt,
				BaseSim: base.SimTime, AltSim: forced.SimTime,
				Regret: forced.SimTime - base.SimTime,
			})
		}
	}
	return rep, nil
}

// forcedOptions builds the replay options that flip decision d to alt:
// direction flips ride a one-entry force plan on the same
// layout, grid flips pin the alternate shape explicitly (their own
// layout, same distances).
func forcedOptions(opt Options, d decis.Decision, alt string) (Options, error) {
	fopt := opt
	fopt.Trace = false
	fopt.force = nil
	switch d.Kind {
	case decis.KindDirection:
		dir, err := decis.ParseDir(alt)
		if err != nil {
			return Options{}, err
		}
		fopt.force = &decis.Plan{Dir: map[int64]dirheur.Direction{d.Level: dir}}
	case decis.KindGrid:
		pr, pc, err := decis.ParseGrid(alt)
		if err != nil {
			return Options{}, err
		}
		fopt.GridRows, fopt.GridCols = pr, pc
	default:
		return Options{}, fmt.Errorf("pbfs: unknown decision kind %q", d.Kind)
	}
	return fopt, nil
}

// diffDist returns the first vertex whose distance differs, or -1 when
// the arrays are bit-identical.
func diffDist(base, forced []int64) int64 {
	if len(base) != len(forced) {
		return 0
	}
	for v := range base {
		if base[v] != forced[v] {
			return int64(v)
		}
	}
	return -1
}
