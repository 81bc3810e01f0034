package bench

import (
	"fmt"
	"io"

	pbfs "repro"
	"repro/internal/decis"
)

// CounterfactualTable runs the decision-replay analysis on one R-MAT
// instance across the four standard configurations (16 ranks, franklin
// cost model) and writes
// the per-decision regret table: every policy decision a traced search
// took, each alternative it rejected, and the simulated-time delta of
// replaying that alternative. Negative regret marks a level where the
// heuristic left time on the table.
//
// The whole table derives from the simulated clock, so the output is
// bit-identical across runs and hosts — the property the CI smoke
// checks by diffing two invocations.
func CounterfactualTable(w io.Writer, scale, ef int, seed uint64) error {
	g, err := pbfs.NewRMATGraph(scale, ef, seed)
	if err != nil {
		return err
	}
	srcs := g.Sources(1, seed)
	if len(srcs) == 0 {
		return fmt.Errorf("bench: no usable counterfactual source")
	}
	src := srcs[0]
	fmt.Fprintf(w, "=== Counterfactual decision replay (scale %d, ef %d, source %d) ===\n",
		scale, ef, src)
	fmt.Fprintf(w, "%-10s %-10s %6s %-10s %-12s %14s %14s %12s\n",
		"config", "decision", "level", "choice", "alternative",
		"base-sim-s", "alt-sim-s", "regret-s")

	sess := pbfs.NewSession()
	defer sess.Close()
	for _, cfg := range []struct {
		name string
		algo pbfs.Algorithm
	}{
		{"1d-flat", pbfs.OneDFlat},
		{"1d-hybrid", pbfs.OneDHybrid},
		{"2d-flat", pbfs.TwoDFlat},
		{"2d-hybrid", pbfs.TwoDHybrid},
	} {
		rep, err := sess.Counterfactual(g, src, pbfs.Options{
			Algorithm: cfg.algo, Ranks: 16, Machine: "franklin",
		})
		if err != nil {
			return fmt.Errorf("bench: %s: %w", cfg.name, err)
		}
		for _, cf := range rep.Replays {
			fmt.Fprintf(w, "%-10s %-10s %6d %-10s %-12s %14.9f %14.9f %+12.3e\n",
				cfg.name, cf.Decision.Kind, cf.Decision.Level,
				cf.Decision.Choice, cf.Alternative,
				cf.BaseSim, cf.AltSim, cf.Regret)
		}
		worst := rep.MaxNegativeRegret()
		fmt.Fprintf(w, "%-10s %d decisions, %d replays, worst regret per kind:",
			cfg.name, len(rep.Decisions), len(rep.Replays))
		for _, kind := range []decis.Kind{decis.KindDirection, decis.KindGrid} {
			fmt.Fprintf(w, " %s=%.3e", kind, worst[kind])
		}
		fmt.Fprintln(w)
	}
	return nil
}
