package pbfs

import (
	"fmt"

	"repro/internal/decis"
)

// Tuned is one (layout, graph-family) pair's auto-tuned settings: the
// candidate the tuner's evaluation pass found cheapest on the probe
// sources. Zero Alpha/Beta mean "the published defaults", zero grid
// dimensions mean the derived shape — exactly the Options zero values the settings substitute for.
type Tuned struct {
	Alpha, Beta        int64
	GridRows, GridCols int
	// Speedup is the defaults' total simulated time over the tuned
	// settings' on the probe sources. The defaults are always in the
	// candidate set and ties keep them, so Speedup >= 1 by
	// construction: tuning can only match or beat the hand-set
	// constants, never regress them.
	Speedup float64
}

// tuneKey identifies a tuned-settings cache entry: the resolved engine
// cache key of the untuned options plus the graph family. Two graphs
// of one family served under one layout share tuned settings; a
// different machine profile, rank count, or algorithm tunes separately.
type tuneKey struct {
	lay    layout
	family string
}

// Tune runs the auto-tuner for g's family under opt's layout and caches
// the result on the session: a counterfactual pass over the first probe
// source turns the recorded decisions into candidate settings
// (alpha/beta threshold variants when a direction decision lost money,
// the grid shapes the derivation rejected), then
// every candidate — the hand-set defaults always among them — runs the
// full probe-source set and the cheapest total simulated time wins.
// Searches and batches submitted with Options.AutoTune then pick the
// cached settings up. A second Tune for the same (layout, family)
// returns the cached result without re-evaluating.
//
// opt must name a Machine profile; sources are the probe set the
// candidates are scored on (a handful of Graph.Sources keys is enough).
func (s *Session) Tune(g *Graph, opt Options, sources []int64) (Tuned, error) {
	if g == nil {
		return Tuned{}, fmt.Errorf("pbfs: nil graph")
	}
	if opt.Machine == "" {
		return Tuned{}, fmt.Errorf("pbfs: tuning requires a Machine profile (no clock, nothing to minimize)")
	}
	if len(sources) == 0 {
		return Tuned{}, fmt.Errorf("pbfs: tuning requires probe sources")
	}
	base := opt
	base.AutoTune = false
	base.Trace = false
	base.force = nil
	lay, err := resolveLayout(base)
	if err != nil {
		return Tuned{}, err
	}
	key := tuneKey{lay: lay, family: g.family}
	s.mu.Lock()
	cached, ok := s.tuned[key]
	s.mu.Unlock()
	if ok {
		return cached, nil
	}

	rep, err := s.Counterfactual(g, sources[0], base)
	if err != nil {
		return Tuned{}, err
	}
	cands := tuneCandidates(base, lay, rep)

	// Score every candidate on the full probe set; candidate 0 is the
	// defaults and strict improvement is required to displace them.
	var defSim, bestSim float64
	best := 0
	for ci, cand := range cands {
		var total float64
		for _, src := range sources {
			res, err := s.Search(g, src, cand)
			if err != nil {
				return Tuned{}, err
			}
			total += res.SimTime
		}
		if ci == 0 {
			defSim, bestSim = total, total
			continue
		}
		if total < bestSim {
			best, bestSim = ci, total
		}
	}
	win := cands[best]
	t := Tuned{
		Alpha: win.Alpha, Beta: win.Beta,
		GridRows: win.GridRows, GridCols: win.GridCols,
		Speedup: 1,
	}
	if bestSim > 0 {
		t.Speedup = defSim / bestSim
	}
	s.mu.Lock()
	if s.tuned == nil {
		s.tuned = make(map[tuneKey]Tuned)
	}
	s.tuned[key] = t
	s.mu.Unlock()
	return t, nil
}

// tuneCandidates derives the candidate settings from one search's
// regret report. Candidate 0 is always the unmodified defaults — the
// floor the tuner can never regress below. The rest are targeted by
// what the counterfactuals found: threshold variants when a direction
// decision lost simulated time, and the grid shapes the closest-square derivation
// rejected (2D only, capped to keep the evaluation pass bounded).
func tuneCandidates(base Options, lay layout, rep *CounterfactualReport) []Options {
	cands := []Options{base}
	worst := rep.MaxNegativeRegret()

	distributed := lay.algo == OneDFlat || lay.algo == OneDHybrid ||
		lay.algo == TwoDFlat || lay.algo == TwoDHybrid
	if !distributed {
		return cands
	}

	// Direction thresholds: when a direction flip won a replay, the
	// alpha/beta pair is mis-set for this family — probe one octave
	// around it in each dimension.
	if base.Direction == Auto && worst[decis.KindDirection] < 0 {
		alpha, beta := base.Alpha, base.Beta
		for _, d := range rep.Decisions {
			if d.Kind == decis.KindDirection {
				alpha, beta = d.Alpha, d.Beta
				break
			}
		}
		for _, v := range [][2]int64{
			{alpha * 2, beta}, {alpha / 2, beta},
			{alpha, beta * 2}, {alpha, beta / 2},
		} {
			if v[0] < 1 || v[1] < 1 {
				continue
			}
			c := base
			c.Alpha, c.Beta = v[0], v[1]
			cands = append(cands, c)
		}
	}

	// Grid shape: replay told us exactly what each rejected
	// factorization costs — evaluate the best-regret alternates.
	if (lay.algo == TwoDFlat || lay.algo == TwoDHybrid) &&
		base.GridRows == 0 && base.GridCols == 0 {
		added := 0
		for _, cf := range rep.Replays {
			if cf.Decision.Kind != decis.KindGrid || cf.Regret >= 0 || added >= 3 {
				continue
			}
			if pr, pc, err := decis.ParseGrid(cf.Alternative); err == nil {
				c := base
				c.GridRows, c.GridCols = pr, pc
				cands = append(cands, c)
				added++
			}
		}
	}
	return cands
}

// applyTuned substitutes the session's cached tuned settings into opt
// when Options.AutoTune is set: fields the caller left at their zero
// defaults take the tuned values, explicit caller choices always win.
// Without a cache entry for (layout, family) the options pass through
// unchanged — serving a family before tuning it is not an error.
func (s *Session) applyTuned(g *Graph, opt Options) Options {
	if !opt.AutoTune {
		return opt
	}
	lay, err := resolveLayout(opt)
	if err != nil {
		return opt // Search/BFSBatch will surface the error
	}
	s.mu.Lock()
	t, ok := s.tuned[tuneKey{lay: lay, family: g.family}]
	s.mu.Unlock()
	if !ok {
		return opt
	}
	if opt.Alpha == 0 && opt.Beta == 0 {
		opt.Alpha, opt.Beta = t.Alpha, t.Beta
	}
	if opt.GridRows == 0 && opt.GridCols == 0 {
		opt.GridRows, opt.GridCols = t.GridRows, t.GridCols
	}
	return opt
}
