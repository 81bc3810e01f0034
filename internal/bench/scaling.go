package bench

import (
	"fmt"
	"io"

	pbfs "repro"
	"repro/internal/netmodel"
	"repro/internal/perfmodel"
)

var fourAlgos = []perfmodel.Algo{
	perfmodel.OneDFlat, perfmodel.OneDHybrid, perfmodel.TwoDFlat, perfmodel.TwoDHybrid,
}

// projectSeries prints a GTEPS (or comm time) series for the four
// algorithm variants over the given core counts.
func projectSeries(w io.Writer, m *netmodel.Machine, wl perfmodel.Workload, cores []int, commTime bool) {
	fmt.Fprintf(w, "%8s", "Cores")
	for _, a := range fourAlgos {
		fmt.Fprintf(w, "  %14s", a)
	}
	fmt.Fprintln(w)
	for _, p := range cores {
		fmt.Fprintf(w, "%8d", p)
		for _, a := range fourAlgos {
			b := perfmodel.Predict(perfmodel.Config{Machine: m, Cores: p, Algo: a}, wl)
			if commTime {
				fmt.Fprintf(w, "  %13.2fs", b.Comm)
			} else {
				fmt.Fprintf(w, "  %14.2f", b.GTEPS)
			}
		}
		fmt.Fprintln(w)
	}
}

// emulateSeries runs the four variants over emulated rank counts and
// prints simulated GTEPS (or comm time). 2D points run on the closest
// square factorization of the rank count.
func emulateSeries(w io.Writer, machine string, scale, ef int, ranks []int, sources int, commTime bool) error {
	g, err := pbfs.NewRMATGraph(scale, ef, 0x5ca1e)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%8s", "Ranks")
	for _, a := range fourAlgos {
		fmt.Fprintf(w, "  %14s", a)
	}
	fmt.Fprintln(w)
	for _, p := range ranks {
		fmt.Fprintf(w, "%8d", p)
		for _, a := range fourAlgos {
			res, err := runEmulated(g, a, p, machine, sources, 0xabc)
			if err != nil {
				return err
			}
			if commTime {
				fmt.Fprintf(w, "  %13.4fs", res.MeanCommTime)
			} else {
				fmt.Fprintf(w, "  %14.4f", res.HarmonicMeanTEPS/1e9)
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Figure5 reproduces the Franklin strong-scaling GTEPS plots: (a) scale
// 29 over 512-4096 cores, (b) scale 32 over 4096-8192 cores.
func Figure5(w io.Writer, emulate bool) error {
	f := netmodel.Franklin()
	header(w, "Figure 5a (projected): Franklin strong scaling, R-MAT scale 29, GTEPS")
	projectSeries(w, f, perfmodel.RMATWorkload(29, 16), []int{512, 1024, 2048, 4096}, false)
	header(w, "Figure 5b (projected): Franklin strong scaling, R-MAT scale 32, GTEPS")
	projectSeries(w, f, perfmodel.RMATWorkload(32, 16), []int{4096, 6400, 8192}, false)
	if !emulate {
		return nil
	}
	header(w, "Figure 5 (emulated, downscaled): scale 15, GTEPS (simulated time)")
	return emulateSeries(w, "franklin", 15, 16, []int{16, 36, 64}, 3, false)
}

// Figure6 reproduces the Franklin communication-time plots for the same
// configurations as Figure 5.
func Figure6(w io.Writer, emulate bool) error {
	f := netmodel.Franklin()
	header(w, "Figure 6a (projected): Franklin comm time (s), R-MAT scale 29")
	projectSeries(w, f, perfmodel.RMATWorkload(29, 16), []int{512, 1024, 2048, 4096}, true)
	header(w, "Figure 6b (projected): Franklin comm time (s), R-MAT scale 32")
	projectSeries(w, f, perfmodel.RMATWorkload(32, 16), []int{4096, 6400, 8192}, true)
	if !emulate {
		return nil
	}
	header(w, "Figure 6 (emulated, downscaled): scale 15, comm time (simulated s)")
	return emulateSeries(w, "franklin", 15, 16, []int{16, 36, 64}, 3, true)
}

// Figure7 reproduces the Hopper strong-scaling GTEPS plots: (a) scale 30
// over 1224-10008 cores, (b) scale 32 over 5040-40000 cores.
func Figure7(w io.Writer, emulate bool) error {
	h := netmodel.Hopper()
	header(w, "Figure 7a (projected): Hopper strong scaling, R-MAT scale 30, GTEPS")
	projectSeries(w, h, perfmodel.RMATWorkload(30, 16), []int{1224, 2500, 5040, 10008}, false)
	header(w, "Figure 7b (projected): Hopper strong scaling, R-MAT scale 32, GTEPS")
	projectSeries(w, h, perfmodel.RMATWorkload(32, 16), []int{5040, 10008, 20000, 40000}, false)
	if !emulate {
		return nil
	}
	header(w, "Figure 7 (emulated, downscaled): scale 15 on the Hopper profile, GTEPS (simulated time)")
	return emulateSeries(w, "hopper", 15, 16, []int{16, 36, 64}, 3, false)
}

// Figure8 reproduces the Hopper communication-time plots for the same
// configurations as Figure 7.
func Figure8(w io.Writer, emulate bool) error {
	h := netmodel.Hopper()
	header(w, "Figure 8a (projected): Hopper comm time (s), R-MAT scale 30")
	projectSeries(w, h, perfmodel.RMATWorkload(30, 16), []int{1224, 2500, 5040, 10008}, true)
	header(w, "Figure 8b (projected): Hopper comm time (s), R-MAT scale 32")
	projectSeries(w, h, perfmodel.RMATWorkload(32, 16), []int{5040, 10008, 20000, 40000}, true)
	if !emulate {
		return nil
	}
	header(w, "Figure 8 (emulated, downscaled): scale 15 on the Hopper profile, comm time (simulated s)")
	return emulateSeries(w, "hopper", 15, 16, []int{16, 36, 64}, 3, true)
}

// Figure9 reproduces the Franklin weak-scaling experiment: ~17M edges per
// core, mean search time and communication time; the ideal curve is flat.
func Figure9(w io.Writer, emulate bool) error {
	f := netmodel.Franklin()
	header(w, "Figure 9 (projected): Franklin weak scaling, ~17M edges/core: mean search time and comm time")
	fmt.Fprintf(w, "%8s", "Cores")
	for _, a := range fourAlgos {
		fmt.Fprintf(w, "  %18s", a)
	}
	fmt.Fprintln(w)
	for i, p := range []int{512, 1024, 2048, 4096} {
		scale := 29 + i // 16*2^29/512 = 17M edges per core, constant
		wl := perfmodel.RMATWorkload(scale, 16)
		fmt.Fprintf(w, "%8d", p)
		for _, a := range fourAlgos {
			b := perfmodel.Predict(perfmodel.Config{Machine: f, Cores: p, Algo: a}, wl)
			fmt.Fprintf(w, "  %8.2fs/%7.2fs", b.Total, b.Comm)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "(per cell: mean search time / communication time)")
	if !emulate {
		return nil
	}
	header(w, "Figure 9 (emulated, downscaled): constant edges per rank")
	fmt.Fprintf(w, "%8s", "Ranks")
	for _, a := range fourAlgos {
		fmt.Fprintf(w, "  %22s", a)
	}
	fmt.Fprintln(w)
	for i, p := range []int{4, 16, 64} {
		scale := 12 + 2*i
		g, err := pbfs.NewRMATGraph(scale, 16, 0x9ea4)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%8d", p)
		for _, a := range fourAlgos {
			res, err := runEmulated(g, a, p, "franklin", 2, 0x9e)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "  %10.4fs/%9.4fs", res.MeanTime, res.MeanCommTime)
		}
		fmt.Fprintln(w)
	}
	return nil
}
