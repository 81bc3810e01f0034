package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strings"
	"time"
)

// noisyDrift is the host drift above which a run's differences are
// reported as noise, not as regressions.
const noisyDrift = 0.10

// historyPath is where -record appends, relative to the repository
// root the suite is run from.
const historyPath = "benchmark/history.jsonl"

// report prints one pass over one workload: every metric by name with
// its unit, then the notes.
func report(out io.Writer, w *workload, o *outcome, traced bool) {
	pass := "untraced"
	if traced {
		pass = "traced"
	}
	fmt.Fprintf(out, "== %s (%s): %d ops attempted, %d failed\n", w.name, pass, o.attempted, o.failed)
	for _, d := range table(traced) {
		v, ok := o.metrics[d.Name]
		if !ok {
			continue // a layer this workload does not exercise
		}
		fmt.Fprintf(out, "  %-32s %14.6g %s\n", d.Name, v, d.Unit)
	}
	if n, ok := o.notes["samples"]; ok {
		beyond := o.notes["samples_beyond_p90"]
		flag := ""
		if beyond < tailSamples {
			flag = fmt.Sprintf("  (p90 unsupported: highest supported tail is p%g)", highestSupported(int(n), 50, 75, 90))
		}
		fmt.Fprintf(out, "  latency samples %d, %d beyond p90%s\n", int(n), int(beyond), flag)
	}
	var keys []string
	for k := range o.notes {
		if k != "samples" && k != "samples_beyond_p90" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(out, "  note %-27s %14.6g\n", k, o.notes[k])
	}
	if traced {
		reconcile(out, o)
		self := selfByName(o.spans)
		var names []string
		for name := range self {
			names = append(names, name)
		}
		sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
		fmt.Fprintf(out, "  self time by span (%d spans):\n", len(o.spans))
		for _, name := range names {
			fmt.Fprintf(out, "    %-30s %12.3f ms\n", name, self[name])
		}
	}
}

// reconcile prints how the ledger's pieces add up to the wholes they
// are pieces of.
func reconcile(out io.Writer, o *outcome) {
	m := o.metrics
	var children float64
	for _, s := range o.spans {
		if s.Parent != 0 && spanName(o.spans, s.Parent) == "setup" {
			children += float64(s.EndNs-s.StartNs) / 1e9
		}
	}
	if whole := o.notes["setup_s"]; whole > 0 {
		fmt.Fprintf(out, "  reconcile set-up spans %.3f s of setup %.3f s (%.1f%%)\n", children, whole, 100*children/whole)
	}
	var graphs float64
	for _, s := range o.spans {
		if s.Name == "new_graph" {
			graphs += float64(s.EndNs-s.StartNs) / 1e9
		}
	}
	fmt.Fprintf(out, "  reconcile generate %.3f + build_csr %.3f = %.3f s against new_graph %.3f s\n",
		m["rmat.generate_s"]+m["webgen.generate_s"], m["graph.build_csr_s"],
		m["rmat.generate_s"]+m["webgen.generate_s"]+m["graph.build_csr_s"], graphs)
	distribute := m["bfs1d.distribute_s"] + m["bfs2d.distribute_s"] + m["bfs2d.pulls_build_s"]
	if build := m["pbfs.engine_build_s"]; build > 0 {
		fmt.Fprintf(out, "  reconcile distribute + pulls %.3f s against pbfs.engine_build_s %.3f s\n", distribute, build)
	}
	if warm := m["serve.new_s"]; warm > 0 {
		fmt.Fprintf(out, "  reconcile distribute %.3f s x 2 sessions = %.3f s against serve.new_s %.3f s\n", distribute, 2*distribute, warm)
	}
	for _, run := range []string{"bfs1d.run_ms_p50", "bfs1d.run_batch_ms_p50", "bfs2d.run_ms_p50"} {
		if m[run] > 0 {
			fmt.Fprintf(out, "  reconcile %s %.3f + pbfs.assemble_ms_p50 %.3f = %.3f ms against op_ms_p50 %.3f ms\n",
				run, m[run], m["pbfs.assemble_ms_p50"], m[run]+m["pbfs.assemble_ms_p50"], o.notes["op_ms_p50"])
		}
	}
}

func spanName(spans []span, id int) string {
	if id < 1 || id > len(spans) {
		return ""
	}
	return spans[id-1].Name
}

// suite is one pass over every workload.
type suite map[string]*outcome

func runPass(e env, traced bool, spansPath string) (suite, error) {
	s := suite{}
	var all []span
	for i := range workloads {
		w := &workloads[i]
		start := time.Now()
		o, err := w.run(e, traced)
		if err != nil {
			return nil, err
		}
		if _, err := declared(table(traced), o.metrics); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		report(os.Stdout, w, o, traced)
		fmt.Printf("  run took %.1f s\n", time.Since(start).Seconds())
		s[w.name] = o
		all = append(all, o.spans...)
	}
	if traced && spansPath != "" {
		if err := writeSpans(spansPath, all); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s suite) failed() int {
	n := 0
	for _, o := range s {
		n += o.failed
	}
	return n
}

func runSuite(e env, traced bool, spansPath string, record bool) error {
	fmt.Printf("host %s seed %d window %s\n", hostStamp(), e.seed, e.window)
	s, err := runPass(e, false, "")
	if err != nil {
		return err
	}
	failed := s.failed()
	if traced {
		t, err := runPass(e, true, spansPath)
		if err != nil {
			return err
		}
		failed += t.failed()
	}
	if record {
		if err := appendHistory(e, s); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d ops failed or answered wrongly", failed)
	}
	return nil
}

// worsening is how far b is worse than a, as a share of a, in the
// metric's own direction; negative when b is better.
func worsening(d metric, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runCheck runs the untraced suite twice and compares: the same code
// must agree with itself within the bounds it will hold others to.
func runCheck(e env) error {
	fmt.Printf("host %s seed %d window %s\n", hostStamp(), e.seed, e.window)
	first, err := runPass(e, false, "")
	if err != nil {
		return err
	}
	second, err := runPass(e, false, "")
	if err != nil {
		return err
	}
	breaches := 0
	fmt.Printf("%-12s %-22s %14s %14s %8s %7s\n", "workload", "metric", "first", "second", "worse", "bound")
	for i := range workloads {
		name := workloads[i].name
		a, b := first[name], second[name]
		noisy := a.notes["spin_drift_share"] > noisyDrift || b.notes["spin_drift_share"] > noisyDrift ||
			drift(a.notes["spin_mops"], b.notes["spin_mops"]) > noisyDrift
		for _, d := range endToEnd {
			worse := worsening(d, a.metrics[d.Name], b.metrics[d.Name])
			verdict := ""
			switch {
			case worse > d.Bound && noisy:
				verdict = "noisy"
			case worse > d.Bound:
				verdict = "BREACH"
				breaches++
			}
			fmt.Printf("%-12s %-22s %14.6g %14.6g %+7.1f%% %6.0f%% %s\n",
				name, d.Name, a.metrics[d.Name], b.metrics[d.Name], 100*worse, 100*d.Bound, verdict)
		}
	}
	if n := first.failed() + second.failed(); n > 0 {
		return fmt.Errorf("%d ops failed or answered wrongly", n)
	}
	if breaches > 0 {
		return fmt.Errorf("%d (metric, workload) pairs differ from themselves by more than their bound", breaches)
	}
	return nil
}

// historyRow is one line of benchmark/history.jsonl.
type historyRow struct {
	Time      string                        `json:"time"`
	Commit    string                        `json:"commit"`
	Host      string                        `json:"host"`
	Seed      uint64                        `json:"seed"`
	WindowS   float64                       `json:"window_s"`
	Workloads map[string]map[string]float64 `json:"workloads"`
}

func appendHistory(e env, s suite) error {
	row := historyRow{
		Time: time.Now().UTC().Format(time.RFC3339), Commit: commit(), Host: hostStamp(),
		Seed: e.seed, WindowS: e.window.Seconds(), Workloads: map[string]map[string]float64{},
	}
	for name, o := range s {
		row.Workloads[name] = o.metrics
	}
	line, err := json.Marshal(row)
	if err != nil {
		return fmt.Errorf("encode history row: %w", err)
	}
	f, err := os.OpenFile(historyPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("open history: %w", err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		_ = f.Close() // the write error is the one to report
		return fmt.Errorf("append history: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close history: %w", err)
	}
	fmt.Printf("appended one row to %s\n", historyPath)
	return nil
}

// commit names the checked-out commit, marked when the tree differs
// from it; "unknown" outside a git checkout.
func commit() string {
	head, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	c := strings.TrimSpace(string(head))
	if dirty, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(dirty) > 0 {
		c += "+dirty"
	}
	return c
}
