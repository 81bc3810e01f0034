// Package bench contains one driver per table and figure of the paper's
// evaluation (Section 6). Each driver emits two blocks:
//
//   - PROJECTED: the paper's exact configurations (cores, scales,
//     machines) through the calibrated analytic model (internal/perfmodel);
//   - EMULATED: a real execution of the full distributed algorithm at a
//     scale this host can hold (goroutine ranks, real collectives,
//     simulated clocks), demonstrating the same qualitative behaviour and
//     cross-checking the model's code paths.
//
// The drivers print rows/series in the same shape as the paper's tables
// and figures so EXPERIMENTS.md can record paper-vs-reproduction side by
// side.
package bench

import (
	"fmt"
	"io"

	"repro/internal/baseline"
	"repro/internal/bfs1d"
	"repro/internal/bfs2d"
	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/graph500"
	"repro/internal/netmodel"
	"repro/internal/perfmodel"
	"repro/internal/rmat"
	"repro/internal/spmat"
)

// EmuConfig describes one emulated benchmark run.
type EmuConfig struct {
	Machine *netmodel.Machine
	Algo    perfmodel.Algo
	Ranks   int // emulated rank count (2D variants run on its closest-square grid)
	Threads int // 0/1 flat; >1 hybrid strip/buffer threading
	// Vector selects the 2D vector distribution (bfs2d.Dist2D default, or
	// bfs2d.DistDiag for the Figure 4 imbalance experiment).
	Vector  bfs2d.VectorDist
	Sources int
	Seed    uint64
	// Validate checks the first search against the serial oracle.
	Validate bool
}

// EmuResult couples benchmark statistics with phase timings.
type EmuResult struct {
	Stats    graph500.Stats
	PhaseMax map[string]float64 // per-tag communication maxima, mean over runs
	// PerRankComm holds, for the final run, each rank's total
	// communication time (Figure 4's quantity).
	PerRankComm []float64
}

// RunEmulated executes the configured algorithm over the edge list for
// the configured number of sources and summarizes the simulated-time
// results.
func RunEmulated(el *graph.EdgeList, cfg EmuConfig) (*EmuResult, error) {
	if cfg.Sources < 1 {
		cfg.Sources = 4
	}
	threads := cfg.Threads
	if threads < 1 {
		threads = 1
	}
	ref, err := graph.BuildCSR(el, true)
	if err != nil {
		return nil, err
	}
	sources := graph500.SelectSources(ref, cfg.Sources, cfg.Seed)
	if len(sources) == 0 {
		return nil, fmt.Errorf("bench: no usable sources")
	}
	machine := cfg.Machine.WithRanksPerNode(cfg.Machine.CoresPerNode / threads)

	// Distribute once, as a real benchmark would.
	var g1 *bfs1d.Graph
	var g2 *bfs2d.Graph
	var pr, pc int
	switch cfg.Algo {
	case perfmodel.OneDFlat, perfmodel.OneDHybrid, perfmodel.Reference, perfmodel.PBGL:
		g1, err = bfs1d.FromCSR(ref, cfg.Ranks)
	case perfmodel.TwoDFlat, perfmodel.TwoDHybrid:
		// The emulated 2D driver accepts any factorization; use the
		// paper's closest-square grid for the rank count.
		pr, pc = cluster.ClosestSquare(cfg.Ranks)
		g2, err = bfs2d.FromCSR(ref, pr, pc, threads)
	default:
		return nil, fmt.Errorf("bench: unsupported algorithm %v", cfg.Algo)
	}
	if err != nil {
		return nil, err
	}

	res := &EmuResult{PhaseMax: map[string]float64{}}
	runs := make([]graph500.Run, 0, len(sources))
	// Session mechanics: one world (with its collective groups), one
	// grid, and one scratch arena per algorithm family, all reused
	// across the searches — the Graph 500 protocol's steady state. The
	// world's clocks are reset between searches so each run's stats are
	// its own.
	w := cluster.NewWorld(cfg.Ranks, machine)
	var grid *cluster.Grid
	if g2 != nil {
		grid = cluster.NewGrid(w, pr, pc)
	}
	var arena1 bfs1d.Arena
	var arena2 bfs2d.Arena
	defer arena1.Close()
	defer arena2.Close()
	for i, src := range sources {
		w.Reset()
		var dist, parent []int64
		var levels, traversed int64
		switch cfg.Algo {
		case perfmodel.OneDFlat, perfmodel.OneDHybrid:
			out := bfs1d.Run(w, g1, src, bfs1d.Options{
				Threads: threads, LocalShortcut: true, DedupSends: true,
				Price: machine, Arena: &arena1,
			})
			dist, parent, levels, traversed = out.Dist, out.Parent, out.Levels, out.TraversedEdges
		case perfmodel.Reference:
			out := baseline.RunReference(w, g1, src, machine)
			dist, parent, levels, traversed = out.Dist, out.Parent, out.Levels, out.TraversedEdges
		case perfmodel.PBGL:
			out := baseline.RunPBGL(w, g1, src, machine)
			dist, parent, levels, traversed = out.Dist, out.Parent, out.Levels, out.TraversedEdges
		case perfmodel.TwoDFlat, perfmodel.TwoDHybrid:
			out, err := bfs2d.Run(w, grid, g2, src, bfs2d.Options{
				Threads: threads, Kernel: spmat.KernelAuto, Vector: cfg.Vector,
				Price: machine, Arena: &arena2,
			})
			if err != nil {
				return nil, err
			}
			dist, parent, levels, traversed = out.Dist, out.Parent, out.Levels, out.TraversedEdges
		}
		if cfg.Validate && i == 0 {
			if err := graph500.ValidateOutput(ref, src, dist, parent); err != nil {
				return nil, err
			}
		}
		st := w.Stats()
		var maxComm float64
		for _, c := range st.CommTime {
			if c > maxComm {
				maxComm = c
			}
		}
		runs = append(runs, graph500.Run{
			Source:   src,
			Time:     st.MaxClock,
			CommTime: maxComm,
			Edges:    graph500.UndirectedEdges(traversed),
			Levels:   levels,
		})
		for tag, v := range st.CommByTag {
			res.PhaseMax[tag] += v / float64(len(sources))
		}
		if i == len(sources)-1 {
			res.PerRankComm = st.CommTime
		}
	}
	res.Stats = graph500.Summarize(runs)
	return res, nil
}

// rmatEdges generates the undirected, relabeled R-MAT instance used by
// the emulated experiments.
func rmatEdges(scale, ef int, seed uint64) (*graph.EdgeList, error) {
	return rmat.Graph500(scale, ef, seed).GenerateUndirected()
}

// header prints a section heading.
func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
}
