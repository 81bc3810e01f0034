// Command bfsbench regenerates the paper's tables and figures.
//
// Usage:
//
//	bfsbench -list
//	bfsbench -experiment table1
//	bfsbench -experiment all -emulate=false
//
// Each experiment prints a PROJECTED block (the paper's exact machine
// configurations through the calibrated Section 5 model) and, with
// -emulate (default on), an EMULATED block (real execution of the
// distributed algorithms at laptop scale over goroutine ranks).
//
// With -counterfactual, it instead prints the decision-replay regret
// table for the standard configurations: every per-level policy
// decision of one traced search, replayed under each rejected
// alternative, with the simulated-time regret. The table is fully
// deterministic (identical bytes every run), which the CI smoke checks
// by diffing two invocations:
//
//	bfsbench -counterfactual -bench-scale 10
//
// Wall-clock measurement lives in benchmark/ (see benchmark/README.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/bench"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment id or 'all' (see -list)")
		emulate    = flag.Bool("emulate", true, "also run the downscaled emulated experiments")
		list       = flag.Bool("list", false, "list experiment ids and exit")
		benchScale = flag.Int("bench-scale", 16, "R-MAT scale for -counterfactual")
		counterfac = flag.Bool("counterfactual", false, "print the decision-replay regret table for the standard configurations at -bench-scale and exit (deterministic: identical output every run)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (inspect with go tool pprof)")
		memProfile = flag.String("memprofile", "", "write a heap profile at exit to this file (inspect with go tool pprof)")
	)
	flag.Parse()
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		// Snapshot the heap after the measured work, on the way out.
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC() // flush garbage so the profile shows live retention
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}
	if err := checkBenchScale(*benchScale, *counterfac); err != nil {
		fatal(err)
	}

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-8s  %s\n", e.Name, e.Desc)
		}
		return
	}

	if *counterfac {
		if err := bench.CounterfactualTable(os.Stdout, *benchScale, 16, 0xbf); err != nil {
			fatal(err)
		}
		return
	}

	if *experiment == "all" {
		if err := bench.RunAll(os.Stdout, *emulate); err != nil {
			fatal(err)
		}
		return
	}
	for _, name := range strings.Split(*experiment, ",") {
		e, ok := bench.Lookup(strings.TrimSpace(name))
		if !ok {
			fatal(fmt.Errorf("unknown experiment %q; try -list", name))
		}
		if err := e.Run(os.Stdout, *emulate); err != nil {
			fatal(err)
		}
	}
}

// checkBenchScale rejects a -bench-scale outside [4, 24] when
// -counterfactual, the only mode that reads it, is set.
func checkBenchScale(scale int, counterfactual bool) error {
	if !counterfactual || (scale >= 4 && scale <= 24) {
		return nil
	}
	// Below scale 4 the 16-rank instances degenerate (fewer vertices
	// than ranks); above 24 a laptop-scale replay is not meaningful.
	return fmt.Errorf("-bench-scale %d out of supported range [4, 24]", scale)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bfsbench:", err)
	os.Exit(1)
}
