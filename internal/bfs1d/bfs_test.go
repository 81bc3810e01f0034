package bfs1d

import (
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/graph500"
	"repro/internal/levels"
	"repro/internal/netmodel"
	"repro/internal/prng"
	"repro/internal/rmat"
	"repro/internal/serial"
)

func TestPart1D(t *testing.T) {
	pt := Part1D{N: 103, P: 8}
	if err := pt.Validate(); err != nil {
		t.Fatal(err)
	}
	var total int64
	for i := 0; i < 8; i++ {
		total += pt.Count(i)
	}
	if total != 103 {
		t.Errorf("blocks cover %d vertices", total)
	}
	for v := int64(0); v < 103; v++ {
		o := pt.Owner(v)
		if v < pt.Start(o) || v >= pt.End(o) {
			t.Fatalf("vertex %d: owner %d range [%d,%d)", v, o, pt.Start(o), pt.End(o))
		}
		if got := pt.ToLocal(v); got != v-pt.Start(o) {
			t.Fatalf("ToLocal(%d) = %d", v, got)
		}
	}
	if (Part1D{N: 3, P: 8}).Validate() == nil {
		t.Error("more ranks than vertices accepted")
	}
}

func TestPart1DProperty(t *testing.T) {
	check := func(seed uint64) bool {
		rng := prng.New(seed)
		pt := Part1D{N: rng.Int64n(10000) + 1, P: rng.Intn(64) + 1}
		if int64(pt.P) > pt.N {
			pt.P = int(pt.N)
		}
		// Blocks are contiguous, non-overlapping, and sizes differ by <= 1.
		var mn, mx int64 = 1 << 62, 0
		for i := 0; i < pt.P; i++ {
			c := pt.Count(i)
			if c < mn {
				mn = c
			}
			if c > mx {
				mx = c
			}
			if i > 0 && pt.Start(i) != pt.End(i-1) {
				return false
			}
		}
		return mx-mn <= 1 && pt.Start(0) == 0 && pt.End(pt.P-1) == pt.N
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDistributePreservesEdges(t *testing.T) {
	p := rmat.Graph500(9, 8, 17)
	el, err := p.GenerateUndirected()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := graph.BuildCSR(el, true)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := Distribute(el, 5)
	if err != nil {
		t.Fatal(err)
	}
	var distEdges int64
	for _, lg := range dg.Locals {
		distEdges += lg.NumEdges()
	}
	if distEdges != ref.NumEdges() {
		t.Errorf("distributed edges %d != deduped CSR edges %d", distEdges, ref.NumEdges())
	}
	// Spot-check adjacency of an arbitrary vertex.
	for _, v := range []int64{0, 100, 511} {
		o := dg.Part.Owner(v)
		got := dg.Locals[o].Neighbors(v - dg.Part.Start(o))
		want := ref.Neighbors(v)
		if len(got) != len(want) {
			t.Fatalf("vertex %d: %v vs %v", v, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("vertex %d adjacency mismatch", v)
			}
		}
	}
}

// goodSource returns a vertex of maximal degree, guaranteeing the BFS
// does real work (R-MAT leaves low-numbered vertices isolated at small
// scales after relabeling).
func goodSource(t *testing.T, el *graph.EdgeList) int64 {
	t.Helper()
	ref, err := graph.BuildCSR(el, true)
	if err != nil {
		t.Fatal(err)
	}
	var best, bestDeg int64
	for v := int64(0); v < ref.NumVerts; v++ {
		if d := ref.Degree(v); d > bestDeg {
			best, bestDeg = v, d
		}
	}
	return best
}

// runAndValidate runs the distributed BFS and checks it against the
// serial oracle.
func runAndValidate(t *testing.T, el *graph.EdgeList, p int, source int64, opt Options) *levels.Output {
	t.Helper()
	ref, err := graph.BuildCSR(el, true)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := Distribute(el, p)
	if err != nil {
		t.Fatal(err)
	}
	w := cluster.NewWorld(p, cluster.ZeroCost{})
	out := Run(w, dg, source, opt)
	sref := serial.BFS(ref, source)
	res := &serial.Result{Source: source, Dist: out.Dist, Parent: out.Parent}
	if err := serial.Validate(ref, res, sref); err != nil {
		t.Fatalf("p=%d threads=%d shortcut=%v: %v", p, opt.Threads, opt.LocalShortcut, err)
	}
	// The official Graph 500 validation entry point must agree with the
	// serial oracle path.
	if err := graph500.ValidateOutput(ref, source, out.Dist, out.Parent); err != nil {
		t.Fatalf("p=%d: graph500.ValidateOutput: %v", p, err)
	}
	if want := sref.EdgesTraversed(ref); out.TraversedEdges != want {
		t.Errorf("TraversedEdges = %d, want %d", out.TraversedEdges, want)
	}
	return out
}

func TestBFS1DMatchesSerial(t *testing.T) {
	gp := rmat.Graph500(10, 8, 23)
	el, err := gp.GenerateUndirected()
	if err != nil {
		t.Fatal(err)
	}
	src := goodSource(t, el)
	for _, p := range []int{1, 2, 7, 16} {
		for _, threads := range []int{1, 4} {
			opt := Options{Threads: threads, LocalShortcut: true}
			out := runAndValidate(t, el, p, src, opt)
			if out.TraversedEdges == 0 {
				t.Fatal("test source did no work")
			}
		}
	}
}

func TestBFS1DNoShortcut(t *testing.T) {
	gp := rmat.Graph500(9, 8, 29)
	el, err := gp.GenerateUndirected()
	if err != nil {
		t.Fatal(err)
	}
	// Routing local discoveries through the all-to-all must not change
	// the answer, only the communication volume.
	runAndValidate(t, el, 6, goodSource(t, el), Options{Threads: 1, LocalShortcut: false})
}

func TestBFS1DLineGraphDepth(t *testing.T) {
	const n = 64
	el := &graph.EdgeList{NumVerts: n}
	for i := int64(0); i < n-1; i++ {
		el.Edges = append(el.Edges, graph.Edge{U: i, V: i + 1})
	}
	sym := el.Symmetrize()
	out := runAndValidate(t, sym, 4, 0, DefaultOptions())
	if out.Levels != n-1 {
		t.Errorf("Levels = %d, want %d", out.Levels, n-1)
	}
	if out.Dist[n-1] != n-1 {
		t.Errorf("far-end distance = %d", out.Dist[n-1])
	}
}

func TestBFS1DIsolatedSource(t *testing.T) {
	el := &graph.EdgeList{NumVerts: 10, Edges: []graph.Edge{{U: 1, V: 2}}}
	out := runAndValidate(t, el.Symmetrize(), 3, 9, DefaultOptions())
	if out.Dist[9] != 0 {
		t.Errorf("source distance = %d", out.Dist[9])
	}
	for v := 0; v < 9; v++ {
		if out.Dist[v] != serial.Unreached {
			t.Errorf("vertex %d reached from isolated source", v)
		}
	}
}

func TestBFS1DChargesTime(t *testing.T) {
	gp := rmat.Graph500(10, 8, 31)
	el, err := gp.GenerateUndirected()
	if err != nil {
		t.Fatal(err)
	}
	dg, err := Distribute(el, 4)
	if err != nil {
		t.Fatal(err)
	}
	m := netmodel.Franklin()
	w := cluster.NewWorld(4, m)
	opt := DefaultOptions()
	opt.Price = m
	Run(w, dg, goodSource(t, el), opt)
	st := w.Stats()
	if st.MaxClock <= 0 {
		t.Error("no simulated time accumulated")
	}
	if st.CommByTag["a2a"] <= 0 {
		t.Error("no all-to-all time booked")
	}
	if st.CommByTag["allreduce"] <= 0 {
		t.Error("no allreduce time booked")
	}
	for i, ct := range st.CompTime {
		if ct <= 0 {
			t.Errorf("rank %d: no computation time", i)
		}
	}
}

func TestHybridReducesCompute(t *testing.T) {
	gp := rmat.Graph500(11, 16, 37)
	el, err := gp.GenerateUndirected()
	if err != nil {
		t.Fatal(err)
	}
	m := netmodel.Franklin()
	src := goodSource(t, el)
	comp := func(threads int) float64 {
		dg, err := Distribute(el, 4)
		if err != nil {
			t.Fatal(err)
		}
		w := cluster.NewWorld(4, m)
		Run(w, dg, src, Options{Threads: threads, LocalShortcut: true, Price: m})
		st := w.Stats()
		var mx float64
		for _, c := range st.CompTime {
			if c > mx {
				mx = c
			}
		}
		return mx
	}
	flat, hybrid := comp(1), comp(4)
	if hybrid >= flat {
		t.Errorf("4-way hybrid compute (%v) not below flat (%v)", hybrid, flat)
	}
	if hybrid < flat/8 {
		t.Errorf("hybrid compute (%v) implausibly below flat/8 (%v)", hybrid, flat/8)
	}
}

// Property: distributed and serial BFS agree on random graphs across
// random rank counts.
func TestBFS1DPropertyRandom(t *testing.T) {
	check := func(seed uint64) bool {
		rng := prng.New(seed)
		n := int64(rng.Intn(80) + 4)
		el := &graph.EdgeList{NumVerts: n}
		m := rng.Intn(250)
		for k := 0; k < m; k++ {
			el.Edges = append(el.Edges, graph.Edge{U: rng.Int64n(n), V: rng.Int64n(n)})
		}
		sym := el.Symmetrize()
		p := rng.Intn(7) + 1
		if int64(p) > n {
			p = int(n)
		}
		source := rng.Int64n(n)
		ref, err := graph.BuildCSR(sym, true)
		if err != nil {
			return false
		}
		dg, err := Distribute(sym, p)
		if err != nil {
			return false
		}
		w := cluster.NewWorld(p, cluster.ZeroCost{})
		opt := DefaultOptions()
		opt.Threads = rng.Intn(3) + 1
		out := Run(w, dg, source, opt)
		sref := serial.BFS(ref, source)
		res := &serial.Result{Source: source, Dist: out.Dist, Parent: out.Parent}
		return serial.Validate(ref, res, sref) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
