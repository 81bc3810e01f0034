package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	pbfs "repro"
	"repro/internal/serve"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, beyond := percentile(xs, 90); v != 90 || beyond != 10 {
		t.Errorf("p90 of 1..100 = %v with %d beyond, want 90 with 10", v, beyond)
	}
	if _, beyond := percentile(xs[:99], 90); beyond >= tailSamples {
		t.Errorf("99 samples leave %d beyond p90, want fewer than %d", beyond, tailSamples)
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{100, 90}, {99, 75}, {40, 75}, {39, 50}, {20, 50}, {19, 0}} {
		if got := highestSupported(c.n, 50, 75, 90); got != c.want {
			t.Errorf("highestSupported(%d) = p%v, want p%v", c.n, got, c.want)
		}
	}
	if v, beyond := percentile(nil, 90); v != 0 || beyond != 0 {
		t.Errorf("empty sample reads %v, %d", v, beyond)
	}
}

func TestInputsAreFunctionsOfTheSeed(t *testing.T) {
	a := poissonSchedule(newRand(5, 0), 200, 2*time.Second)
	b := poissonSchedule(newRand(5, 0), 200, 2*time.Second)
	c := poissonSchedule(newRand(6, 0), 200, 2*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed, different schedule")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seed, same schedule")
	}
	if len(a) != 400 {
		t.Errorf("200/s over 2 s drew %d arrivals, want 400", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("schedule goes backwards at %d", i)
		}
	}

	pool := make([]int64, 37)
	for i := range pool {
		pool[i] = int64(100 + i)
	}
	r1, r2, r3 := newRotation(newRand(5, 1), pool), newRotation(newRand(5, 1), pool), newRotation(newRand(6, 1), pool)
	if !reflect.DeepEqual(r1.pool, r2.pool) {
		t.Error("same seed, different permutation")
	}
	if reflect.DeepEqual(r1.pool, r3.pool) {
		t.Error("different seed, same permutation")
	}
	last := map[int64]int{}
	for i := 0; i < 4*len(pool); i++ {
		v := r1.take()
		if prev, seen := last[v]; seen && i-prev != len(pool) {
			t.Fatalf("source %d came back after %d draws, want %d", v, i-prev, len(pool))
		}
		last[v] = i
	}
	if len(last) != len(pool) {
		t.Errorf("rotation visited %d of %d sources", len(last), len(pool))
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "a", StartNs: 10, EndNs: 30},
		{ID: 3, Parent: 1, Name: "b", StartNs: 20, EndNs: 50},  // overlaps a: counted once
		{ID: 4, Parent: 1, Name: "c", StartNs: 90, EndNs: 120}, // clipped to the parent
		{ID: 5, Parent: 3, Name: "grandchild", StartNs: 25, EndNs: 35},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 50, 2: 20, 3: 20, 4: 30, 5: 10} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestVerifierCountsCorruptedDist(t *testing.T) {
	g, err := pbfs.NewRMATGraph(8, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	keys := g.Sources(2, 1)
	good, bad := g.SerialBFS(keys[0]), g.SerialBFS(keys[1])
	bad.Dist[len(bad.Dist)/2]++
	win := &window{ops: 2, sources: 2, wall: time.Second, refused: map[int]bool{}, latencies: []float64{1, 1}}
	win.answers = []answer{
		{op: 0, source: keys[0], sum: checksum(good.Dist, good.Levels)},
		{op: 1, source: keys[1], sum: checksum(bad.Dist, bad.Levels)},
	}
	out := newOutcome()
	win.score(newVerifier(g), out)
	if out.attempted != 2 || out.failed != 1 || out.wrong != 1 {
		t.Errorf("attempted %d failed %d wrong %d, want 2, 1, 1", out.attempted, out.failed, out.wrong)
	}
	if got := out.metrics["sources_per_s"]; got != 1 {
		t.Errorf("sources_per_s = %v, want the one correct source per second", got)
	}
}

func TestParseQueryBody(t *testing.T) {
	dist := []int64{0, 1, pbfs.Unreached, 12345678901, 2}
	body, err := json.Marshal(serve.QueryResponse{ID: 9, Graph: "rmat", Levels: 3, Cached: true, QueueWaitNs: 42, Dist: dist})
	if err != nil {
		t.Fatal(err)
	}
	hdr, sum, err := parseQueryBody(body)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.ID != 9 || hdr.Graph != "rmat" || !hdr.Cached || hdr.QueueWaitNs != 42 || hdr.Levels != 3 {
		t.Errorf("header decoded as %+v", hdr)
	}
	if want := checksum(dist, 3); sum != want {
		t.Errorf("checksum %x, want %x", sum, want)
	}
	if _, _, err := parseQueryBody([]byte(`{"id":1}`)); err == nil {
		t.Error("a body without dist parsed")
	}
	if _, _, err := parseQueryBody([]byte(`{"dist":[1,2`)); err == nil {
		t.Error("an unclosed dist array parsed")
	}
}

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestDeclared keeps BENCHMARK.json and the tables in the code in
// step, and the names inside the driver's grammar.
func TestDeclared(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the grammar", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		use(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json says %q, the code %q", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 {
			t.Errorf("why of %s has %d characters", w.Name, len(w.Why))
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics, the code %d+%d",
			len(doc.EndToEnd), len(doc.PerLayer), len(endToEnd), len(perLayer))
	}
	setup := false
	for i, m := range doc.EndToEnd {
		use(m.Name)
		if want := endToEnd[i]; m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better || m.Bound != want.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json says %+v, the code %+v", i, m, want)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is outside the grammar", m.Name, m.Unit)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("setup_s (s, lower) is not declared")
	}
	for i, m := range doc.PerLayer {
		use(m.Name)
		if want := perLayer[i]; m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better {
			t.Errorf("per-layer %d: BENCHMARK.json says %+v, the code %+v", i, m, want)
		}
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is outside the grammar", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" || doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", doc.Paths, doc.RunSeconds)
	}
}

// TestSmoke runs all six workloads, both passes, on scale-10 graphs
// with short windows: a change that breaks a public surface the
// benchmark calls fails here, not at the next measurement. It also
// checks the emitted names against the declared ones.
func TestSmoke(t *testing.T) {
	e := env{seed: 7, window: 300 * time.Millisecond, smoke: true}
	emitted := map[string]bool{}
	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			out, err := w.run(e, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if out.attempted < 1 || out.wrong != 0 {
				t.Errorf("%s traced=%v: %d ops attempted, %d answered wrongly", w.name, traced, out.attempted, out.wrong)
			}
			// Under a loaded test machine the server may shed a
			// deadline query; nothing else may fail.
			if out.failed != 0 && w.kind != serveCold {
				t.Errorf("%s traced=%v: %d of %d ops failed", w.name, traced, out.failed, out.attempted)
			}
			if _, err := declared(table(traced), out.metrics); err != nil {
				t.Errorf("%s traced=%v: %v", w.name, traced, err)
			}
			for name := range out.metrics {
				emitted[name] = true
			}
			if !traced {
				for _, d := range endToEnd {
					if out.metrics[d.Name] <= 0 {
						t.Errorf("%s: end-to-end %s reads %v", w.name, d.Name, out.metrics[d.Name])
					}
				}
			} else if len(out.spans) == 0 {
				t.Errorf("%s: traced pass recorded no span", w.name)
			}
		}
	}
	for _, d := range perLayer {
		if !emitted[d.Name] {
			t.Errorf("per-layer %s is declared but no workload emits it", d.Name)
		}
	}
}
