package bench

import (
	"fmt"
	"io"

	pbfs "repro"
	"repro/internal/netmodel"
	"repro/internal/perfmodel"
	"repro/internal/webgen"
)

// Figure11 reproduces the uk-union experiment: running times of the flat
// and hybrid 2D algorithms on the high-diameter web crawl, split into
// computation and communication. The paper's findings: communication is
// a small share despite ~140 synchronous iterations, the hybrid variant
// is slower than flat MPI (nothing to save on communication, extra
// intra-node overheads), and 500->4000 cores yields ~4x.
func Figure11(w io.Writer, emulate bool, emuVerts int64) error {
	h := netmodel.Hopper()
	wl := perfmodel.UKUnionWorkload()
	header(w, "Figure 11 (projected): uk-union on Hopper, 2D flat vs hybrid, comp/comm split (s)")
	fmt.Fprintln(w, "Cores      2D Flat comp  2D Flat comm  2D Hybrid comp  2D Hybrid comm")
	for _, p := range []int{500, 1000, 2000, 4000} {
		fl := perfmodel.Predict(perfmodel.Config{Machine: h, Cores: p, Algo: perfmodel.TwoDFlat}, wl)
		hy := perfmodel.Predict(perfmodel.Config{Machine: h, Cores: p, Algo: perfmodel.TwoDHybrid}, wl)
		fmt.Fprintf(w, "%5d  %13.2f  %12.2f  %14.2f  %14.2f\n", p, fl.Comp, fl.Comm, hy.Comp, hy.Comm)
	}
	f500 := perfmodel.Predict(perfmodel.Config{Machine: h, Cores: 500, Algo: perfmodel.TwoDFlat}, wl)
	f4000 := perfmodel.Predict(perfmodel.Config{Machine: h, Cores: 4000, Algo: perfmodel.TwoDFlat}, wl)
	fmt.Fprintf(w, "500 -> 4000 cores speedup: %.2fx (paper: ~4x)\n", f500.Total/f4000.Total)
	if !emulate {
		return nil
	}

	if emuVerts <= 0 {
		emuVerts = 1 << 14
	}
	const seed = 0x0b5e55ed
	g, err := pbfs.NewWebCrawlGraph(emuVerts, seed)
	if err != nil {
		return err
	}
	header(w, fmt.Sprintf("Figure 11 (emulated): synthetic crawl n=%d, depth %d, 2D flat vs hybrid",
		emuVerts, webgen.UKUnionLike(emuVerts, seed).Depth))
	fmt.Fprintln(w, "Ranks  Algo        Mean time (s)  Comp (s)   Comm (s)   Levels")
	for _, ranks := range []int{4, 16, 64} {
		for _, algo := range []perfmodel.Algo{perfmodel.TwoDFlat, perfmodel.TwoDHybrid} {
			res, err := runEmulated(g, algo, ranks, "hopper", 2, 0xbb)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%5d  %-10s  %13.4f  %9.4f  %9.4f  %6.0f\n",
				ranks, algo, res.MeanTime, res.MeanTime-res.MeanCommTime, res.MeanCommTime, res.MeanLevels)
		}
	}
	fmt.Fprintln(w, "(the crawl's ~140 levels drive per-iteration synchronization exactly as uk-union does)")
	return nil
}
