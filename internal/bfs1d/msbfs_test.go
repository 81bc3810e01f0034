package bfs1d

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dirheur"
	"repro/internal/graph"
	"repro/internal/levels"
	"repro/internal/netmodel"
	"repro/internal/rmat"
	"repro/internal/serial"
)

func batchTestGraph(t *testing.T, scale int) (*graph.CSR, *graph.EdgeList) {
	t.Helper()
	p := rmat.Graph500(scale, 8, 5)
	el, err := p.GenerateUndirected()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := graph.BuildCSR(el, true)
	if err != nil {
		t.Fatal(err)
	}
	return ref, el
}

// pickBatchSources returns width sources exercising the awkward cases:
// a duplicated source (two searches share every frontier) and, when the
// graph has one, an isolated vertex (the search retires at level one).
func pickBatchSources(ref *graph.CSR, width int) []int64 {
	srcs := make([]int64, 0, width)
	var isolated int64 = -1
	for v := int64(0); v < ref.NumVerts && isolated < 0; v++ {
		if len(ref.Neighbors(v)) == 0 {
			isolated = v
		}
	}
	for v := int64(0); v < ref.NumVerts && len(srcs) < width; v++ {
		if len(ref.Neighbors(v)) > 0 {
			srcs = append(srcs, v)
		}
	}
	for len(srcs) < width {
		srcs = append(srcs, srcs[0])
	}
	if width >= 2 {
		srcs[width-1] = srcs[0] // duplicate
	}
	if width >= 3 && isolated >= 0 {
		srcs[width-2] = isolated
	}
	return srcs
}

// TestRunBatchMatchesSequential is the driver-level half of the batched
// conformance story: for every direction mode, thread width, and rank
// count, the batched distances must be bit-identical to running each
// source through the scalar Run, and the batched parents must be valid
// BFS trees (validated against the serial oracle, which checks the
// parent edge and level relation — not parent equality, which batching
// does not promise).
func TestRunBatchMatchesSequential(t *testing.T) {
	ref, el := batchTestGraph(t, 8)
	for _, p := range []int{1, 4, 7} {
		dg, err := Distribute(el, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []dirheur.Mode{dirheur.ModeTopDown, dirheur.ModeAuto, dirheur.ModeBottomUp} {
			for _, threads := range []int{1, 3} {
				for _, width := range []int{1, 3, 17, 64} {
					srcs := pickBatchSources(ref, width)
					opt := defaultOptions()
					opt.Threads = threads
					opt.Direction = mode
					arena := &Arena{}
					w := cluster.NewWorld(p, cluster.ZeroCost{})
					opt.Arena = arena
					out := RunBatch(w, dg, srcs, opt)
					for s, src := range srcs {
						sref := serial.BFS(ref, src)
						for v := int64(0); v < ref.NumVerts; v++ {
							if out.Dist[s][v] != sref.Dist[v] {
								t.Fatalf("p=%d mode=%v t=%d w=%d search %d (src %d): dist[%d] = %d, serial %d",
									p, mode, threads, width, s, src, v, out.Dist[s][v], sref.Dist[v])
							}
						}
						res := &serial.Result{Source: src, Dist: out.Dist[s], Parent: out.Parent[s]}
						if err := serial.Validate(ref, res, sref); err != nil {
							t.Fatalf("p=%d mode=%v t=%d w=%d search %d: %v", p, mode, threads, width, s, err)
						}
						// Per-search TEPS denominator: degrees over reached.
						var wantEdges, wantLevels int64
						for v := int64(0); v < ref.NumVerts; v++ {
							if sref.Dist[v] != serial.Unreached {
								wantEdges += int64(len(ref.Neighbors(v)))
								if sref.Dist[v] > wantLevels {
									wantLevels = sref.Dist[v]
								}
							}
						}
						if out.TraversedEdges[s] != wantEdges {
							t.Fatalf("search %d: traversed %d, want %d", s, out.TraversedEdges[s], wantEdges)
						}
						if out.Levels[s] != wantLevels {
							t.Fatalf("search %d: levels %d, want %d", s, out.Levels[s], wantLevels)
						}
					}
					arena.Close()
				}
			}
		}
	}
}

// TestRunBatchSharedScanAccounting pins the amortization ledger: the
// batch's shared scan totals never exceed the sum of the sequential
// runs' (each edge scan serves every search that needs it), and the
// unique traversed-edge count equals the degree sum over the union of
// reached vertices — each shared edge counted once even with duplicate
// sources in the batch.
func TestRunBatchSharedScanAccounting(t *testing.T) {
	ref, el := batchTestGraph(t, 9)
	dg, err := Distribute(el, 4)
	if err != nil {
		t.Fatal(err)
	}
	srcs := pickBatchSources(ref, 32)
	opt := defaultOptions()
	opt.Direction = dirheur.ModeAuto
	w := cluster.NewWorld(4, cluster.ZeroCost{})
	out := RunBatch(w, dg, srcs, opt)

	var seqScanned int64
	for _, src := range srcs {
		ws := cluster.NewWorld(4, cluster.ZeroCost{})
		o := Run(ws, dg, src, opt)
		seqScanned += o.ScannedTopDown + o.ScannedBottomUp
	}
	batchScanned := out.ScannedTopDown + out.ScannedBottomUp
	if batchScanned > seqScanned {
		t.Errorf("batch scanned %d > sequential total %d", batchScanned, seqScanned)
	}

	reached := make(map[int64]bool)
	for s := range srcs {
		for v := int64(0); v < ref.NumVerts; v++ {
			if out.Dist[s][v] != serial.Unreached {
				reached[v] = true
			}
		}
	}
	var wantUnique int64
	for v := range reached {
		wantUnique += int64(len(ref.Neighbors(v)))
	}
	if out.UniqueTraversedEdges != wantUnique {
		t.Errorf("unique traversed %d, want %d", out.UniqueTraversedEdges, wantUnique)
	}
	// A duplicated source must not inflate the unique count: srcs[31]
	// duplicates srcs[0], so the union is what 31 distinct searches reach.
	if out.UniqueTraversedEdges > seqScanned {
		t.Errorf("unique traversed %d exceeds sequential scan total %d", out.UniqueTraversedEdges, seqScanned)
	}
}

// TestRunBatchAmortizesSimTime is the priced version of the tentpole
// claim at test scale: one 64-source batch on the modeled machine must
// finish in well under the simulated time of 64 sequential searches,
// because every level's collectives run once instead of 64 times.
func TestRunBatchAmortizesSimTime(t *testing.T) {
	ref, el := batchTestGraph(t, 10)
	dg, err := Distribute(el, 4)
	if err != nil {
		t.Fatal(err)
	}
	srcs := pickBatchSources(ref, 64)
	m := netmodel.Franklin()
	opt := defaultOptions()
	opt.Direction = dirheur.ModeAuto
	opt.Price = m

	w := cluster.NewWorld(4, m)
	RunBatch(w, dg, srcs, opt)
	batchTime := w.Stats().MaxClock

	var seqTime float64
	arena := &Arena{}
	defer arena.Close()
	opt.Arena = arena
	for _, src := range srcs {
		ws := cluster.NewWorld(4, m)
		Run(ws, dg, src, opt)
		seqTime += ws.Stats().MaxClock
	}
	if batchTime <= 0 || seqTime <= 0 {
		t.Fatal("no simulated time accumulated")
	}
	if seqTime < 4*batchTime {
		t.Errorf("batch sim time %.6fs amortizes only %.2fx over sequential %.6fs",
			batchTime, seqTime/batchTime, seqTime)
	}
}

// TestRunBatchArenaReuse runs batches of 17 and 3 sources and single
// searches through one arena while Threads goes 1 -> 3 -> 1, and checks
// every distance against the serial oracle and the last batch against
// the first: the recycled mask planes, triple buffers and thread
// scratch (which flat runs share with hybrid ones) must carry no state
// across runs, widths or thread counts.
func TestRunBatchArenaReuse(t *testing.T) {
	ref, el := batchTestGraph(t, 8)
	dg, err := Distribute(el, 5)
	if err != nil {
		t.Fatal(err)
	}
	arena := &Arena{}
	defer arena.Close()
	check := func(what string, s int64, dist []int64) {
		t.Helper()
		for v, d := range serial.BFS(ref, s).Dist {
			if dist[v] != d {
				t.Fatalf("%s: source %d dist[%d] = %d, serial got %d", what, s, v, dist[v], d)
			}
		}
	}
	opt := defaultOptions()
	opt.Direction = dirheur.ModeAuto
	opt.Arena = arena
	srcs := pickBatchSources(ref, 17)
	first := RunBatch(cluster.NewWorld(5, cluster.ZeroCost{}), dg, srcs, opt)
	for _, threads := range []int{3, 1} {
		o := opt
		o.Threads = threads
		// A different width in between forces the planes to resize down
		// and up; the thread width resizes the worker scratch.
		mid := RunBatch(cluster.NewWorld(5, cluster.ZeroCost{}), dg, srcs[:3], o)
		for k, s := range srcs[:3] {
			check(fmt.Sprintf("threads=%d batch of 3", threads), s, mid.Dist[k])
		}
		one := Run(cluster.NewWorld(5, cluster.ZeroCost{}), dg, srcs[threads], o)
		check(fmt.Sprintf("threads=%d search", threads), srcs[threads], one.Dist)
	}
	again := RunBatch(cluster.NewWorld(5, cluster.ZeroCost{}), dg, srcs, opt)
	for s := range srcs {
		check("batch of 17", srcs[s], again.Dist[s])
		for v := int64(0); v < ref.NumVerts; v++ {
			if first.Dist[s][v] != again.Dist[s][v] || first.Parent[s][v] != again.Parent[s][v] {
				t.Fatalf("arena reuse diverged at search %d vertex %d", s, v)
			}
		}
	}
}

// uint64Words records in out the capacity of every []uint64 reachable
// from v through struct fields, arrays and slices, keyed by its path.
func uint64Words(v reflect.Value, path string, out map[string]int) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			uint64Words(v.Field(i), path+"."+v.Type().Field(i).Name, out)
		}
	case reflect.Array, reflect.Slice:
		if v.Kind() == reflect.Slice && v.Type().Elem().Kind() == reflect.Uint64 {
			out[path] = v.Cap()
			return
		}
		for i := 0; i < v.Len(); i++ {
			uint64Words(v.Index(i), fmt.Sprintf("%s[%d]", path, i), out)
		}
	}
}

// TestRunBatchArenaIsOwnerSized holds RunBatch to the 1D design's
// per-rank memory bound: after warm 64-wide batches at p = 7 on an N
// that 7 does not divide, no rank's batch arena holds a mask plane
// longer than one owner block, ⌈N/p⌉ words. The runs are flat and
// hybrid under Auto, so both the push and the pull have sized their
// scratch; their distances are checked against the serial oracle. The
// flat arena, after a Run and after the batches, holds one thread
// scratch with no per-owner send stacks.
func TestRunBatchArenaIsOwnerSized(t *testing.T) {
	ref, el := batchTestGraph(t, 8)
	const p = 7
	if ref.NumVerts%p == 0 {
		t.Fatalf("N = %d is a multiple of %d", ref.NumVerts, p)
	}
	dg, err := Distribute(el, p)
	if err != nil {
		t.Fatal(err)
	}
	srcs := pickBatchSources(ref, 64)
	block := int((ref.NumVerts + p - 1) / p)
	for _, threads := range []int{1, 3} {
		arena := &Arena{}
		opt := defaultOptions()
		opt.Threads = threads
		opt.Direction = dirheur.ModeAuto
		opt.Arena = arena
		// A flat rank pushes into its own send table, so its one thread
		// scratch holds no per-owner stacks after either driver.
		flatStacks := func(after string) {
			if threads != 1 {
				return
			}
			for me := range arena.ranks {
				if ts := arena.ranks[me].tstate; len(ts) != 1 || ts[0].send != nil {
					t.Errorf("after %s: flat rank %d holds %d thread scratches; want one with no send stacks",
						after, me, len(ts))
				}
			}
		}
		Run(cluster.NewWorld(p, cluster.ZeroCost{}), dg, srcs[0], opt)
		flatStacks("Run")
		var out *levels.BatchOutput
		for i := 0; i < 2; i++ {
			out = RunBatch(cluster.NewWorld(p, cluster.ZeroCost{}), dg, srcs, opt)
		}
		flatStacks("RunBatch")
		arena.Close()
		if out.ScannedTopDown == 0 || out.ScannedBottomUp == 0 {
			t.Fatalf("threads=%d: scanned %d top-down and %d bottom-up; want both phases",
				threads, out.ScannedTopDown, out.ScannedBottomUp)
		}
		for s, src := range srcs {
			for v, d := range serial.BFS(ref, src).Dist {
				if out.Dist[s][v] != d {
					t.Fatalf("threads=%d search %d: dist[%d] = %d, serial %d", threads, s, v, out.Dist[s][v], d)
				}
			}
		}
		for me := range arena.ranks {
			words := map[string]int{}
			uint64Words(reflect.ValueOf(arena.ranks[me].batch), "batch", words)
			if len(words) == 0 {
				t.Fatal("found no []uint64 in the batch arena")
			}
			for path, n := range words {
				if n > block {
					t.Errorf("threads=%d rank %d: %s holds %d words, above one owner block of %d",
						threads, me, path, n, block)
				}
			}
		}
	}
}

// FuzzRunBatch drives RunBatch over arbitrary small undirected graphs:
// up to 200 vertices, 1 to 8 ranks, 1 to 64 sources (duplicates
// included), 1 to 3 threads, the local shortcut and send dedup each on
// or off, and every direction policy. Every search's distances must
// equal the serial BFS and its parents must form a valid BFS tree.
func FuzzRunBatch(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 2, 3, 3, 0, 4, 5}, uint8(9), uint8(3), uint8(2), []byte{0, 4, 0}, uint8(0xff))
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 1, 2, 5, 6}, uint8(6), uint8(7), uint8(63), []byte{1, 5, 7, 1}, uint8(0x5a))
	f.Add([]byte{}, uint8(0), uint8(0), uint8(0), []byte{}, uint8(0))
	f.Fuzz(func(t *testing.T, edges []byte, nb, pb, wb uint8, srcb []byte, flags uint8) {
		n := 1 + int64(nb)%200
		el := &graph.EdgeList{NumVerts: n}
		for k := 0; k+1 < len(edges); k += 2 {
			el.Edges = append(el.Edges, graph.Edge{U: int64(edges[k]) % n, V: int64(edges[k+1]) % n})
		}
		el = el.Symmetrize()
		p := min(1+int(pb)%8, int(n))
		width := 1 + int(wb)%64
		srcs := make([]int64, width)
		for k := range srcs {
			if len(srcb) > 0 {
				srcs[k] = int64(srcb[k%len(srcb)]) % n
			}
		}
		opt := Options{
			Threads:       1 + int(flags&3)%3,
			LocalShortcut: flags&4 != 0,
			DedupSends:    flags&8 != 0,
			Direction:     []dirheur.Mode{dirheur.ModeTopDown, dirheur.ModeAuto, dirheur.ModeBottomUp}[int(flags>>4)%3],
		}
		ref, err := graph.BuildCSR(el, true)
		if err != nil {
			t.Fatal(err)
		}
		dg, err := Distribute(el, p)
		if err != nil {
			t.Fatal(err)
		}
		out := RunBatch(cluster.NewWorld(p, cluster.ZeroCost{}), dg, srcs, opt)
		for s, src := range srcs {
			sref := serial.BFS(ref, src)
			for v, d := range sref.Dist {
				if out.Dist[s][v] != d {
					t.Fatalf("p=%d %+v search %d (src %d): dist[%d] = %d, serial %d",
						p, opt, s, src, v, out.Dist[s][v], d)
				}
			}
			res := &serial.Result{Source: src, Dist: out.Dist[s], Parent: out.Parent[s]}
			if err := serial.Validate(ref, res, sref); err != nil {
				t.Fatalf("p=%d %+v search %d (src %d): %v", p, opt, s, src, err)
			}
		}
	})
}
