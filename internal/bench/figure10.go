package bench

import (
	"fmt"
	"io"

	pbfs "repro"
	"repro/internal/netmodel"
	"repro/internal/perfmodel"
)

// Figure10 reproduces the graph-density sensitivity experiment: GTEPS for
// the four variants on R-MAT graphs of constant edge count and average
// degree 4, 16 and 64, at p = 1024 and 4096. The paper's finding: the 2D
// algorithm closes on (and first beats) the 1D algorithm on the densest
// graphs, with the 1D margin growing as the graph gets sparser.
func Figure10(w io.Writer, emulate bool) error {
	f := netmodel.Franklin()
	configs := []struct{ scale, ef int }{{31, 4}, {29, 16}, {27, 64}}
	for _, p := range []int{1024, 4096} {
		header(w, fmt.Sprintf("Figure 10 (projected): GTEPS vs density on Franklin, p = %d", p))
		fmt.Fprintf(w, "%22s", "Config")
		for _, a := range fourAlgos {
			fmt.Fprintf(w, "  %14s", a)
		}
		fmt.Fprintln(w)
		for _, sc := range configs {
			fmt.Fprintf(w, "scale %2d, degree %2d  ", sc.scale, sc.ef)
			for _, a := range fourAlgos {
				b := perfmodel.Predict(perfmodel.Config{Machine: f, Cores: p, Algo: a},
					perfmodel.RMATWorkload(sc.scale, sc.ef))
				fmt.Fprintf(w, "  %14.2f", b.GTEPS)
			}
			fmt.Fprintln(w)
		}
	}
	if !emulate {
		return nil
	}
	header(w, "Figure 10 (emulated, downscaled): GTEPS vs density, 16 ranks")
	small := []struct{ scale, ef int }{{17, 2}, {15, 8}, {13, 32}}
	fmt.Fprintf(w, "%22s", "Config")
	for _, a := range fourAlgos {
		fmt.Fprintf(w, "  %14s", a)
	}
	fmt.Fprintln(w)
	for _, sc := range small {
		g, err := pbfs.NewRMATGraph(sc.scale, sc.ef, 0xde6)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "scale %2d, degree %2d  ", sc.scale, sc.ef)
		for _, a := range fourAlgos {
			res, err := runEmulated(g, a, 16, "franklin", 2, 0xd)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "  %14.4f", res.HarmonicMeanTEPS/1e9)
		}
		fmt.Fprintln(w)
	}
	return nil
}
