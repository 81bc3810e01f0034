package bfs2d

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
	"repro/internal/spmat"
)

func TestPart2DStructure(t *testing.T) {
	pt := Part2D{N: 101, Pr: 4, Pc: 4}
	if err := pt.Validate(); err != nil {
		t.Fatal(err)
	}
	// Owned ranges tile [0, N) exactly, in grid order row-major by piece.
	var covered int64
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			lo, hi := pt.OwnedRange(i, j)
			covered += hi - lo
			for v := lo; v < hi; v++ {
				oi, oj := pt.VecOwner(v)
				if oi != i || oj != j {
					t.Fatalf("vertex %d: VecOwner = (%d,%d), want (%d,%d)", v, oi, oj, i, j)
				}
			}
		}
	}
	if covered != 101 {
		t.Errorf("owned ranges cover %d of 101", covered)
	}
	for v := int64(0); v < 101; v++ {
		i := pt.RowBlockOf(v)
		if v < pt.RowStart(i) || v >= pt.RowStart(i+1) {
			t.Fatalf("RowBlockOf(%d) = %d out of range", v, i)
		}
		j := pt.ColBlockOf(v)
		if v < pt.ColStart(j) || v >= pt.ColStart(j+1) {
			t.Fatalf("ColBlockOf(%d) = %d out of range", v, j)
		}
	}
}

func TestPart2DProperty(t *testing.T) {
	check := func(seed uint64) bool {
		rng := prng.New(seed)
		pt := Part2D{N: rng.Int64n(5000) + 16, Pr: rng.Intn(6) + 1, Pc: rng.Intn(6) + 1}
		var covered int64
		for i := 0; i < pt.Pr; i++ {
			for j := 0; j < pt.Pc; j++ {
				lo, hi := pt.OwnedRange(i, j)
				if hi < lo {
					return false
				}
				covered += hi - lo
			}
		}
		return covered == pt.N
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDistributePreservesEdges(t *testing.T) {
	p := rmat.Graph500(9, 8, 41)
	el, err := p.GenerateUndirected()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := graph.BuildCSR(el, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{1, 3} {
		dg, err := Distribute(el, 3, 3, threads)
		if err != nil {
			t.Fatal(err)
		}
		if dg.NNZ() != ref.NumEdges() {
			t.Errorf("threads=%d: distributed nnz %d != CSR edges %d", threads, dg.NNZ(), ref.NumEdges())
		}
	}
}

// goodSource returns a vertex of maximal degree so the BFS does real work.
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

// runAndValidate runs the 2D BFS on a square grid and validates against
// the serial oracle.
func runAndValidate(t *testing.T, el *graph.EdgeList, pr int, source int64, opt Options) *levels.Output {
	t.Helper()
	ref, err := graph.BuildCSR(el, true)
	if err != nil {
		t.Fatal(err)
	}
	threads := opt.Threads
	if threads < 1 {
		threads = 1
	}
	dg, err := Distribute(el, pr, pr, threads)
	if err != nil {
		t.Fatal(err)
	}
	w := cluster.NewWorld(pr*pr, cluster.ZeroCost{})
	grid := cluster.NewGrid(w, pr, pr)
	out, err := Run(w, grid, dg, source, opt)
	if err != nil {
		t.Fatal(err)
	}
	sref := serial.BFS(ref, source)
	res := &serial.Result{Source: source, Dist: out.Dist, Parent: out.Parent}
	if err := serial.Validate(ref, res, sref); err != nil {
		t.Fatalf("pr=%d threads=%d vector=%d kernel=%v: %v", pr, opt.Threads, opt.Vector, opt.Kernel, err)
	}
	// The official Graph 500 validation entry point must agree with the
	// serial oracle path.
	if err := graph500.ValidateOutput(ref, source, out.Dist, out.Parent); err != nil {
		t.Fatalf("pr=%d: graph500.ValidateOutput: %v", pr, err)
	}
	if want := sref.EdgesTraversed(ref); out.TraversedEdges != want {
		t.Errorf("TraversedEdges = %d, want %d", out.TraversedEdges, want)
	}
	return out
}

func TestBFS2DMatchesSerial(t *testing.T) {
	gp := rmat.Graph500(10, 8, 43)
	el, err := gp.GenerateUndirected()
	if err != nil {
		t.Fatal(err)
	}
	src := goodSource(t, el)
	for _, pr := range []int{1, 2, 4} {
		for _, threads := range []int{1, 4} {
			opt := DefaultOptions()
			opt.Threads = threads
			out := runAndValidate(t, el, pr, src, opt)
			if out.TraversedEdges == 0 {
				t.Fatal("test source did no work")
			}
		}
	}
}

func TestBFS2DKernels(t *testing.T) {
	gp := rmat.Graph500(9, 8, 47)
	el, err := gp.GenerateUndirected()
	if err != nil {
		t.Fatal(err)
	}
	src := goodSource(t, el)
	for _, kernel := range []spmat.Kernel{spmat.KernelSPA, spmat.KernelHeap, spmat.KernelAuto} {
		opt := DefaultOptions()
		opt.Kernel = kernel
		runAndValidate(t, el, 3, src, opt)
	}
}

func TestBFS2DDiagonalDistribution(t *testing.T) {
	gp := rmat.Graph500(9, 8, 53)
	el, err := gp.GenerateUndirected()
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Vector = DistDiag
	runAndValidate(t, el, 4, goodSource(t, el), opt)
}

func TestBFS2DLineGraphDepth(t *testing.T) {
	const n = 60
	el := &graph.EdgeList{NumVerts: n}
	for i := int64(0); i < n-1; i++ {
		el.Edges = append(el.Edges, graph.Edge{U: i, V: i + 1})
	}
	out := runAndValidate(t, el.Symmetrize(), 3, 0, DefaultOptions())
	if out.Levels != n-1 {
		t.Errorf("Levels = %d, want %d", out.Levels, n-1)
	}
}

func TestBFS2DDisconnected(t *testing.T) {
	el := &graph.EdgeList{NumVerts: 20, Edges: []graph.Edge{{U: 0, V: 1}, {U: 5, V: 6}}}
	out := runAndValidate(t, el.Symmetrize(), 2, 0, DefaultOptions())
	if out.Dist[1] != 1 || out.Dist[5] != serial.Unreached {
		t.Errorf("dist = %v", out.Dist[:8])
	}
}

func TestDiagImbalanceVisible(t *testing.T) {
	// With the diagonal vector distribution, off-diagonal ranks must show
	// materially more communication (waiting) time than diagonal ranks —
	// the phenomenon in Figure 4.
	gp := rmat.Graph500(11, 16, 59)
	el, err := gp.GenerateUndirected()
	if err != nil {
		t.Fatal(err)
	}
	m := netmodel.Franklin()
	const pr = 4
	dg, err := Distribute(el, pr, pr, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := cluster.NewWorld(pr*pr, m)
	grid := cluster.NewGrid(w, pr, pr)
	opt := DefaultOptions()
	opt.Vector = DistDiag
	opt.Price = m
	if _, err := Run(w, grid, dg, goodSource(t, el), opt); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	var diagComm, offComm float64
	for id := 0; id < pr*pr; id++ {
		if grid.RowOf(id) == grid.ColOf(id) {
			diagComm += st.CommTime[id]
		} else {
			offComm += st.CommTime[id]
		}
	}
	diagComm /= pr
	offComm /= float64(pr*pr - pr)
	if offComm <= diagComm {
		t.Errorf("off-diagonal comm (%v) not above diagonal comm (%v)", offComm, diagComm)
	}
}

func TestBFS2DChargesPhases(t *testing.T) {
	gp := rmat.Graph500(10, 8, 61)
	el, err := gp.GenerateUndirected()
	if err != nil {
		t.Fatal(err)
	}
	m := netmodel.Franklin()
	dg, err := Distribute(el, 3, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := cluster.NewWorld(9, m)
	grid := cluster.NewGrid(w, 3, 3)
	opt := DefaultOptions()
	opt.Price = m
	if _, err := Run(w, grid, dg, goodSource(t, el), opt); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	for _, tag := range []string{"expand", "fold", "transpose", "allreduce"} {
		if st.CommByTag[tag] <= 0 {
			t.Errorf("no time booked for %s phase", tag)
		}
	}
}

// Property: 2D BFS agrees with serial across random graphs, grids,
// kernels, threads and vector distributions.
func TestBFS2DPropertyRandom(t *testing.T) {
	check := func(seed uint64) bool {
		rng := prng.New(seed)
		n := int64(rng.Intn(100) + 16)
		el := &graph.EdgeList{NumVerts: n}
		m := rng.Intn(300)
		for k := 0; k < m; k++ {
			el.Edges = append(el.Edges, graph.Edge{U: rng.Int64n(n), V: rng.Int64n(n)})
		}
		sym := el.Symmetrize()
		pr := rng.Intn(3) + 1
		source := rng.Int64n(n)
		opt := DefaultOptions()
		opt.Threads = rng.Intn(3) + 1
		opt.Kernel = spmat.Kernel(rng.Intn(3))
		if rng.Intn(3) == 0 {
			opt.Vector = DistDiag
		}
		ref, err := graph.BuildCSR(sym, true)
		if err != nil {
			return false
		}
		dg, err := Distribute(sym, pr, pr, opt.Threads)
		if err != nil {
			return false
		}
		w := cluster.NewWorld(pr*pr, cluster.ZeroCost{})
		grid := cluster.NewGrid(w, pr, pr)
		out, err := Run(w, grid, dg, source, opt)
		if err != nil {
			return false
		}
		sref := serial.BFS(ref, source)
		res := &serial.Result{Source: source, Dist: out.Dist, Parent: out.Parent}
		return serial.Validate(ref, res, sref) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
