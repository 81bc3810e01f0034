package bench

import (
	"fmt"
	"io"

	pbfs "repro"
	"repro/internal/netmodel"
	"repro/internal/perfmodel"
)

// Table1 reproduces Table 1: the decomposition of communication time for
// the flat 2D algorithm on Franklin over R-MAT graphs of constant edge
// count and varying sparsity. The paper's finding: Allgatherv (expand)
// takes a growing share as the matrix gets sparser, always ahead of
// Alltoallv (fold), whose share stays roughly flat.
func Table1(w io.Writer, emulate bool) error {
	f := netmodel.Franklin()
	header(w, "Table 1 (projected, paper configurations)")
	fmt.Fprintln(w, "Cores  Scale  EdgeFactor  BFS time (s)  Allgatherv  Alltoallv")
	for _, cores := range []int{1024, 2025, 4096} {
		for _, sc := range []struct{ scale, ef int }{{27, 64}, {29, 16}, {31, 4}} {
			wl := perfmodel.RMATWorkload(sc.scale, sc.ef)
			b := perfmodel.Predict(perfmodel.Config{Machine: f, Cores: cores, Algo: perfmodel.TwoDFlat}, wl)
			fmt.Fprintf(w, "%5d  %5d  %10d  %12.2f  %9.1f%%  %8.1f%%\n",
				cores, sc.scale, sc.ef, b.Total,
				100*b.Phase["expand"]/b.Total, 100*b.Phase["fold"]/b.Total)
		}
	}
	if !emulate {
		return nil
	}

	header(w, "Table 1 (emulated, downscaled: constant edge count, varying sparsity)")
	fmt.Fprintln(w, "Ranks  Scale  EdgeFactor  BFS time (s)  Allgatherv  Alltoallv")
	for _, ranks := range []int{16, 36} {
		for _, sc := range []struct {
			scale, ef int
		}{{13, 32}, {15, 8}, {17, 2}} {
			g, err := pbfs.NewRMATGraph(sc.scale, sc.ef, 0x7ab1e1)
			if err != nil {
				return err
			}
			res, err := runEmulated(g, perfmodel.TwoDFlat, ranks, "franklin", 4, 0xbe4c)
			if err != nil {
				return err
			}
			total := res.MeanTime
			fmt.Fprintf(w, "%5d  %5d  %10d  %12.4f  %9.1f%%  %8.1f%%\n",
				ranks, sc.scale, sc.ef, total,
				100*res.phase["expand"]/total, 100*res.phase["fold"]/total)
		}
	}
	return nil
}
