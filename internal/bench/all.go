package bench

import (
	"fmt"
	"io"
)

// Experiment is a named, runnable table or figure reproduction.
type Experiment struct {
	Name string
	Desc string
	Run  func(w io.Writer, emulate bool) error
}

// Experiments returns every table/figure driver keyed by experiment id.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", "communication decomposition of the flat 2D algorithm (Franklin)", Table1},
		{"fig3", "SPA vs heap local SpMSV kernel crossover", func(w io.Writer, emulate bool) error {
			shrink := 8
			if emulate {
				shrink = 1 // full-size blocks: the paper-faithful measurement
			}
			return Figure3(w, shrink)
		}},
		{"fig4", "MPI-time imbalance of the diagonal vector distribution (16x16 grid)", func(w io.Writer, emulate bool) error {
			// The imbalance ratio grows with problem size (more serial
			// merge work at the diagonal); scale 19 reaches the paper's
			// 3-4x band in ~30s of wall time.
			scale := 16
			if emulate {
				scale = 19
			}
			return Figure4(w, scale)
		}},
		{"fig5", "Franklin strong scaling, GTEPS", Figure5},
		{"fig6", "Franklin strong scaling, communication time", Figure6},
		{"fig7", "Hopper strong scaling, GTEPS", Figure7},
		{"fig8", "Hopper strong scaling, communication time", Figure8},
		{"fig9", "Franklin weak scaling, search and communication time", Figure9},
		{"fig10", "GTEPS vs graph density", Figure10},
		{"fig11", "uk-union high-diameter crawl, flat vs hybrid 2D", func(w io.Writer, emulate bool) error {
			return Figure11(w, emulate, 1<<14)
		}},
		{"table2", "PBGL comparison on Carver (MTEPS)", Table2},
		{"refcomp", "Graph 500 reference code comparison (Franklin)", ReferenceComparison},
		{"impact", "Section 1 claim: 2D advantage grows as bisection bandwidth lags", Impact},
	}
}

// Lookup returns the experiment with the given name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunAll executes every experiment in order.
func RunAll(w io.Writer, emulate bool) error {
	for _, e := range Experiments() {
		if err := e.Run(w, emulate); err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
	}
	return nil
}
