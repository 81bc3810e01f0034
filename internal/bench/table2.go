package bench

import (
	"fmt"
	"io"

	"repro/internal/netmodel"
	"repro/internal/perfmodel"
)

// Table2 reproduces the PBGL comparison on Carver: MTEPS of the
// Parallel Boost Graph Library BFS versus the flat 2D algorithm, R-MAT
// scales 22 and 24 at 128 and 256 cores. The paper measures the tuned
// code up to 16x faster.
func Table2(w io.Writer, emulate bool) error {
	c := netmodel.Carver()
	header(w, "Table 2 (projected): MTEPS on Carver, PBGL vs Flat 2D")
	fmt.Fprintln(w, "Cores  Code      Scale 22   Scale 24")
	for _, cores := range []int{128, 256} {
		for _, algo := range []perfmodel.Algo{perfmodel.PBGL, perfmodel.TwoDFlat} {
			fmt.Fprintf(w, "%5d  %-8s", cores, algoShort(algo))
			for _, scale := range []int{22, 24} {
				b := perfmodel.Predict(perfmodel.Config{Machine: c, Cores: cores, Algo: algo},
					perfmodel.RMATWorkload(scale, 16))
				fmt.Fprintf(w, "  %8.1f", b.GTEPS*1000)
			}
			fmt.Fprintln(w)
		}
	}

	if !emulate {
		return nil
	}
	header(w, "Table 2 (emulated, downscaled): MTEPS (simulated), PBGL-style vs Flat 2D")
	fmt.Fprintln(w, "Ranks  Code      Scale 13   Scale 15")
	for _, ranks := range []int{16, 64} {
		for _, algo := range []perfmodel.Algo{perfmodel.PBGL, perfmodel.TwoDFlat} {
			fmt.Fprintf(w, "%5d  %-8s", ranks, algoShort(algo))
			for _, scale := range []int{13, 15} {
				el, err := rmatEdges(scale, 16, 0x7ab1e2)
				if err != nil {
					return err
				}
				res, err := RunEmulated(el, EmuConfig{
					Machine: c, Algo: algo, Ranks: ranks,
					Sources: 2, Seed: 0x72, Validate: true,
				})
				if err != nil {
					return err
				}
				fmt.Fprintf(w, "  %8.1f", res.Stats.HarmonicMeanTEPS/1e6)
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}

func algoShort(a perfmodel.Algo) string {
	if a == perfmodel.PBGL {
		return "PBGL"
	}
	return "Flat 2D"
}

// ReferenceComparison reproduces the Section 6 text comparison: the
// tuned flat 1D code versus the Graph 500 reference MPI implementation
// on Franklin (paper: 2.72x, 3.43x, 4.13x faster at 512/1024/2048 cores).
func ReferenceComparison(w io.Writer, emulate bool) error {
	f := netmodel.Franklin()
	wl := perfmodel.RMATWorkload(29, 16)
	header(w, "Reference-code comparison (projected): Franklin, R-MAT scale 29")
	fmt.Fprintln(w, "Cores  Tuned Flat 1D (s)  Reference (s)  Speedup")
	for _, cores := range []int{512, 1024, 2048} {
		tuned := perfmodel.Predict(perfmodel.Config{Machine: f, Cores: cores, Algo: perfmodel.OneDFlat}, wl)
		ref := perfmodel.Predict(perfmodel.Config{Machine: f, Cores: cores, Algo: perfmodel.Reference}, wl)
		fmt.Fprintf(w, "%5d  %17.2f  %13.2f  %6.2fx\n", cores, tuned.Total, ref.Total, ref.Total/tuned.Total)
	}

	if !emulate {
		return nil
	}
	header(w, "Reference-code comparison (emulated, downscaled)")
	fmt.Fprintln(w, "Ranks  Tuned Flat 1D (s)  Reference (s)  Speedup")
	el, err := rmatEdges(14, 16, 0x4ef)
	if err != nil {
		return err
	}
	for _, ranks := range []int{8, 16, 32} {
		tuned, err := RunEmulated(el, EmuConfig{
			Machine: f, Algo: perfmodel.OneDFlat, Ranks: ranks,
			Sources: 3, Seed: 0x4e, Validate: true,
		})
		if err != nil {
			return err
		}
		ref, err := RunEmulated(el, EmuConfig{
			Machine: f, Algo: perfmodel.Reference, Ranks: ranks,
			Sources: 3, Seed: 0x4e, Validate: true,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%5d  %17.4f  %13.4f  %6.2fx\n",
			ranks, tuned.Stats.MeanTime, ref.Stats.MeanTime, ref.Stats.MeanTime/tuned.Stats.MeanTime)
	}
	return nil
}
