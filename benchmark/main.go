// Command benchmark is the repository's measuring instrument: six
// named workloads driven against the public surfaces (pbfs.Session,
// serve.Server, Server.Handler() on loopback), every answer checked
// against the serial oracle, end-to-end metrics from an untraced pass
// and a per-layer ledger from a second, traced pass whose spans are
// recorded here, around the calls into each layer.
//
//	go run ./benchmark -seed 191              all six workloads, end-to-end metrics
//	go run ./benchmark -seed 191 -trace 1     the same, then the traced pass and the ledger
//	go run ./benchmark -check                 the suite twice, differences judged against the bounds
//	go run ./benchmark -record                the suite once, one row appended to benchmark/history.jsonl
//	go run ./benchmark -smoke -trace 1        tiny graphs, short windows: do the surfaces still answer
//
// With -workload the program runs that one workload, one pass, and
// ends its output with a single JSON line: the form the driver named
// in BENCHMARK.json calls (through benchmark/run.sh).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload and end with one JSON result line; empty runs all six")
		seed    = flag.Uint64("seed", 191, "every generated input derives from this and nothing else")
		seconds = flag.Float64("seconds", 0, "timed window per workload (default 10, or 1 with -smoke)")
		trace   = flag.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
		spans   = flag.String("spans", "", "with -trace 1, write the recorded spans to this file as JSON")
		check   = flag.Bool("check", false, "run the untraced suite twice and judge the differences against the bounds")
		record  = flag.Bool("record", false, "append the suite's end-to-end values to benchmark/history.jsonl")
		smoke   = flag.Bool("smoke", false, "scale-10 graphs and 1 s windows")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds < 0 {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	runtime.GOMAXPROCS(procs())
	if *seconds == 0 {
		*seconds = 10
		if *smoke {
			*seconds = 1
		}
	}
	e := env{seed: *seed, window: time.Duration(*seconds * float64(time.Second)), smoke: *smoke}
	var err error
	switch {
	case *name != "":
		err = runOne(e, *name, *trace == 1, *spans)
	case *check:
		err = runCheck(e)
	default:
		err = runSuite(e, *trace == 1, *spans, *record)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// run is one pass over one workload.
func (w *workload) run(e env, traced bool) (*outcome, error) {
	library := w.kind == libSearch || w.kind == libBatch
	switch {
	case library && traced:
		return w.runLibraryTraced(e)
	case library:
		return w.runLibrary(e)
	case traced:
		return w.runServeTraced(e)
	}
	return w.runServe(e)
}

// result is the line the driver reads.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]reported `json:"metrics"`
}

type reported struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// declared lays an outcome's metrics over the declared table: every
// declared name is present (a per-layer metric the workload does not
// exercise reads 0) and an undeclared name is an error.
func declared(table []metric, got map[string]float64) (map[string]reported, error) {
	out := make(map[string]reported, len(table))
	for _, d := range table {
		out[d.Name] = reported{Value: got[d.Name], Unit: d.Unit}
	}
	for name := range got {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %q is emitted but not declared", name)
		}
	}
	return out, nil
}

func table(traced bool) []metric {
	if traced {
		return perLayer
	}
	return endToEnd
}

// runOne is the driver's entry: one workload, one pass, one JSON line.
func runOne(e env, name string, traced bool, spansPath string) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	out, err := w.run(e, traced)
	if err != nil {
		return err
	}
	report(os.Stdout, w, out, traced)
	if spansPath != "" && traced {
		if err := writeSpans(spansPath, out.spans); err != nil {
			return err
		}
	}
	metrics, err := declared(table(traced), out.metrics)
	if err != nil {
		return err
	}
	line, err := json.Marshal(result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: metrics})
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	fmt.Println(string(line))
	return nil
}
