package bench

import (
	"fmt"
	"io"

	pbfs "repro"
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
	graphs := map[int]*pbfs.Graph{}
	for _, scale := range []int{13, 15} {
		g, err := pbfs.NewRMATGraph(scale, 16, 0x7ab1e2)
		if err != nil {
			return err
		}
		graphs[scale] = g
	}
	header(w, "Table 2 (emulated, downscaled): MTEPS (simulated), PBGL-style vs Flat 2D")
	fmt.Fprintln(w, "Ranks  Code      Scale 13   Scale 15")
	for _, ranks := range []int{16, 64} {
		for _, algo := range []perfmodel.Algo{perfmodel.PBGL, perfmodel.TwoDFlat} {
			fmt.Fprintf(w, "%5d  %-8s", ranks, algoShort(algo))
			for _, scale := range []int{13, 15} {
				res, err := runEmulated(graphs[scale], algo, ranks, "carver", 2, 0x72)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, "  %8.1f", res.HarmonicMeanTEPS/1e6)
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
	g, err := pbfs.NewRMATGraph(14, 16, 0x4ef)
	if err != nil {
		return err
	}
	for _, ranks := range []int{8, 16, 32} {
		tuned, err := runEmulated(g, perfmodel.OneDFlat, ranks, "franklin", 3, 0x4e)
		if err != nil {
			return err
		}
		ref, err := runEmulated(g, perfmodel.Reference, ranks, "franklin", 3, 0x4e)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%5d  %17.4f  %13.4f  %6.2fx\n",
			ranks, tuned.MeanTime, ref.MeanTime, ref.MeanTime/tuned.MeanTime)
	}
	return nil
}
