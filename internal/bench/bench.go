// Package bench contains one driver per table and figure of the paper's
// evaluation (Section 6). Each driver emits two blocks:
//
//   - PROJECTED: the paper's exact configurations (cores, scales,
//     machines) through the calibrated analytic model (internal/perfmodel);
//   - EMULATED: a real execution of the full distributed algorithm at a
//     scale this host can hold (goroutine ranks, real collectives,
//     simulated clocks), demonstrating the same qualitative behaviour and
//     cross-checking the model's code paths. These searches run through
//     a pbfs.Session with top-down traversal, the paper's codes, so the
//     figures measure the same engine users and the server run. Figures
//     3 and 4 ablate what the facade does not expose (the local SpMSV
//     kernel and the diagonal vector layout) and call internal/spmat and
//     internal/bfs2d directly.
//
// The drivers print rows/series in the same shape as the paper's tables
// and figures so EXPERIMENTS.md can record paper-vs-reproduction side by
// side.
package bench

import (
	"fmt"
	"io"

	pbfs "repro"
	"repro/internal/graph500"
	"repro/internal/perfmodel"
)

// emulated summarizes the emulated searches of one configuration.
type emulated struct {
	graph500.Stats
	phase map[string]float64 // communication time per collective tag, mean over searches
}

// runEmulated runs n top-down searches of g from sampled Graph 500 keys
// on one session under algo, ranks and the named machine profile,
// validates each against the serial oracle, and summarizes them. The 2D
// variants run on the closest-square grid of ranks; hybrid variants take
// the machine's threads per rank.
func runEmulated(g *pbfs.Graph, algo perfmodel.Algo, ranks int, machine string, n int, seed uint64) (*emulated, error) {
	sources := g.Sources(n, seed)
	if len(sources) == 0 {
		return nil, fmt.Errorf("bench: no usable sources")
	}
	opt := pbfs.Options{
		// pbfs.Algorithm and perfmodel.Algo enumerate the same variants
		// in the same order (pinned by the facade's tests).
		Algorithm: pbfs.Algorithm(algo), Ranks: ranks, Machine: machine,
		Direction: pbfs.TopDownOnly,
	}
	sess := pbfs.NewSession()
	defer sess.Close()
	res := &emulated{phase: map[string]float64{}}
	runs := make([]graph500.Run, 0, len(sources))
	for i, src := range sources {
		r, err := sess.Search(g, src, opt)
		if err != nil {
			return nil, err
		}
		if err := g.Validate(r); err != nil {
			return nil, fmt.Errorf("bench: %v search %d from %d failed validation: %w", algo, i+1, src, err)
		}
		runs = append(runs, graph500.Run{
			Source: src, Time: r.SimTime, CommTime: r.CommTime,
			Edges: r.TraversedEdges, Levels: r.Levels,
		})
		for tag, v := range r.CommByPhase {
			res.phase[tag] += v / float64(len(sources))
		}
	}
	res.Stats = graph500.Summarize(runs)
	return res, nil
}

// header prints a section heading.
func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
}
