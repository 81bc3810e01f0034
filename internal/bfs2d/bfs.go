package bfs2d

import (
	"fmt"

	"repro/internal/bits"
	"repro/internal/cluster"
	"repro/internal/decis"
	"repro/internal/dirheur"
	"repro/internal/levels"
	"repro/internal/serial"
	"repro/internal/smp"
	"repro/internal/spmat"
	"repro/internal/spvec"
)

// VectorDist selects how BFS vectors are distributed over the grid.
type VectorDist int

const (
	// Dist2D is the paper's 2D vector distribution: every process owns
	// ~n/p vector entries (Section 3.2). This is the load-balanced layout.
	Dist2D VectorDist = iota
	// DistDiag places each vector block entirely on the diagonal process
	// P(i,i), the layout the paper shows causes severe MPI-time imbalance
	// (Figure 4). Requires a square grid.
	DistDiag
)

// Options configures a 2D BFS run.
type Options struct {
	// Threads is the intra-rank threading width; the graph must have been
	// distributed with the same strip count.
	Threads int
	// Kernel selects the local SpMSV accumulator (SPA, heap, or the
	// polyalgorithm).
	Kernel spmat.Kernel
	// Vector selects the vector distribution.
	Vector VectorDist
	// Direction selects the per-level traversal policy. The zero value
	// (dirheur.ModeTopDown) is the classic SpMSV push loop;
	// dirheur.ModeAuto applies the Beamer alpha/beta heuristic and runs
	// the dense middle levels bottom-up (pull over the blocks' row-major
	// views, dense bitmap frontier exchange instead of transpose+expand);
	// dirheur.ModeBottomUp pulls every level. Only Dist2D vectors
	// support non-top-down directions.
	Direction dirheur.Mode
	// Price charges local computation to the simulated clock.
	Price cluster.Pricer
	// Trace records the per-level discovery profile into the output
	// (costs nothing: it reuses the termination allreduce's totals), and
	// with it the per-level scanned-edge, direction, and communication
	// volume profiles and the heuristics' decision records.
	Trace bool
	// Force, when non-nil, overrides recorded decisions during a
	// counterfactual replay: levels named in the plan take the forced
	// direction instead of the heuristic's choice, and
	// the heuristic continues from the forced state. Every input the
	// plan is consulted with is globally agreed, so all ranks follow the
	// same forced schedule. Distances are unaffected by construction.
	Force *decis.Plan
	// Arena, when non-nil, recycles every per-rank working buffer across
	// consecutive Runs (the Graph 500 protocol performs 16-64 searches
	// back to back), so repeated searches allocate only their output
	// arrays. An Arena serves one Run at a time; it resizes lazily when
	// the grid or graph shape changes.
	Arena *Arena
}

// Arena is the reusable cross-run scratch of Run: one arena per rank,
// indexed by world rank id. The zero value is ready to use.
type Arena struct {
	ranks []rankArena
}

// rankArena is one rank's scratch: its frame, the frontier double
// buffer, the rectangular transpose's routing buffers, the flat record
// buffer, kernel scratches, the strip worker team, and the vectors of the
// level loop.
type rankArena struct {
	frame                 frame
	frontBuf              [2][]int64
	sendT                 [][]int64 // rectangular transpose: per-world-rank routing buffers
	moved                 records   // rectangular transpose: collected records
	pairs                 []int64   // batch transpose and diagonal fold records
	localF, spOut, merged spvec.Vec
	rowScratch            spmat.RowScratch
	mergeScratch          spvec.MergeScratch
	pool                  *smp.Pool
	// Bottom-up state: the frontier bitmap sliced to this rank's block
	// column (front), the row-block frontier assembled along the row
	// subcommunicator (rowFront), the row-block visited slice (vis),
	// the rank's owned-bit contribution (chunk), and the strip pull
	// scratch. All four bitmaps are N bits for global indexing, but
	// only the named slices are exchanged or read.
	front, rowFront, chunk, vis *bits.Bitmap
	pullScratch                 spmat.PullScratch
	// Multi-source (RunBatch) planes and buffers.
	batch batchRankArena
}

// Close releases the worker teams held by the arena. The arena remains
// usable; teams are respawned on demand.
func (a *Arena) Close() {
	for i := range a.ranks {
		a.ranks[i].pool.Close()
		a.ranks[i].pool = nil
	}
}

// Run executes a BFS from source on a grid of pr*pc ranks. The grid must
// match the distribution of g; any rectangular pr×pc layout is accepted
// (square grids use the paper's pairwise transpose, rectangular ones an
// all-to-all remap exchange — see TransposeOwner). Violated entry
// preconditions are reported as errors.
func Run(w *cluster.World, grid *cluster.Grid, g *Graph, source int64, opt Options) (*levels.Output, error) {
	pt := g.Part
	if err := checkGrid(w, grid, pt); err != nil {
		return nil, err
	}
	if source < 0 || source >= pt.N {
		return nil, fmt.Errorf("bfs2d: source %d out of range [0,%d)", source, pt.N)
	}
	switch opt.Vector {
	case Dist2D:
		return run2DVector(w, grid, g, source, opt), nil
	case DistDiag:
		if opt.Direction != dirheur.ModeTopDown {
			// The diagonal layout exists to reproduce the Figure 4
			// imbalance experiment; it has no pull path.
			return nil, fmt.Errorf("bfs2d: diagonal vector distribution is top-down only")
		}
		if !grid.Square() {
			// Vector block i lives on P(i,i): the layout only exists on
			// square grids (as in the paper's Figure 4 experiment).
			return nil, fmt.Errorf("bfs2d: diagonal vector distribution requires a square grid, got %dx%d",
				grid.Pr, grid.Pc)
		}
		return runDiagVector(w, grid, g, source, opt), nil
	}
	return nil, fmt.Errorf("bfs2d: unknown vector distribution %d", opt.Vector)
}

// run2DVector is Algorithm 3 with the 2D vector distribution.
func run2DVector(w *cluster.World, grid *cluster.Grid, g *Graph, source int64, opt Options) *levels.Output {
	run, release := prepare(w, grid, g, opt)
	defer release()
	pt, t, price := g.Part, run.t, opt.Price
	// Every rank writes its answers straight into its owned range of the
	// output arrays, which are fresh per run so a returned result is never
	// overwritten by a later search.
	out := &levels.Output{Source: source, Dist: make([]int64, pt.N), Parent: make([]int64, pt.N)}
	levelsPer := make([]int64, w.P)
	lp := levels.New(w, opt.Trace, opt.Force)

	w.Run(func(r *cluster.Rank) {
		ar, f := run.enter(r)
		vLo, nOwn, rowLo, colLo := f.own.lo, f.own.len(), f.row.lo, f.col.lo
		dist := out.Dist[vLo:f.own.hi]
		parent := out.Parent[vLo:f.own.hi]
		for k := range dist {
			dist[k] = serial.Unreached
			parent[k] = serial.Unreached
		}
		r.ChargeMem(price, 0, 0, 2*nOwn, 0)

		// Per-rank scratch arena: every buffer below is written once per
		// level and reused, so steady-state levels allocate nothing.
		//
		// The frontier is double-buffered. A level's frontier is handed by
		// reference to the transpose peer and read by its column group
		// during that level's expand, which completes before those ranks
		// reach the level's terminating allreduce; by the time this rank
		// builds a new frontier (two allreduces later for a given buffer),
		// no reader can still hold it.
		frontier := ar.frontBuf[0][:0]
		if si, sj := pt.VecOwner(source); si == f.i && sj == f.j {
			dist[source-vLo] = 0
			parent[source-vLo] = source
			frontier = append(frontier, source)
			ar.frontBuf[0] = frontier
		}
		curBuf := 0
		spMSVOpts := spmat.SpMSVOpts{Kernel: opt.Kernel}
		localF, spOut, merged := &ar.localF, &ar.spOut, &ar.merged

		dirm := dirheur.New(opt.Direction, pt.N, run.totalAdj)
		// The partitioned bitmap exchange runs over word ranges padded
		// to word boundaries.
		xc := exchange{f.rowG, f.colG, price, f.own.words(), f.row.words(), f.col.words()}
		var front, rowFront, chunkBM, vis *bits.Bitmap
		exchangeFrontier := func() {
			xc.frontier(r, chunkBM.Words(), rowFront.Words(), front.Words())
		}
		// enterBottomUp converts the rank to pull state at a level
		// boundary: the owned slices of the visited set and the current
		// frontier are densified into bitmaps and exchanged along the
		// grid subcommunicators. (Unlike the 1D driver, the visited
		// slice must span the whole row block: a rank scans every row of
		// its block, most of which are owned by other ranks in its
		// process row.) All ranks decide from the same global
		// statistics, so the collective schedules stay aligned.
		enterBottomUp := func() {
			front = bits.Grown(ar.front, pt.N)
			rowFront = bits.Grown(ar.rowFront, pt.N)
			chunkBM = bits.Grown(ar.chunk, pt.N)
			vis = bits.Grown(ar.vis, pt.N)
			ar.front, ar.rowFront, ar.chunk, ar.vis = front, rowFront, chunkBM, vis
			for k := range dist {
				if dist[k] != serial.Unreached {
					chunkBM.Set(vLo + int64(k))
				}
			}
			xc.rowHop(r, chunkBM.Words(), vis.Words())
			bits.ClearWords(chunkBM.Words()[xc.own.lo:xc.own.hi])
			for _, gv := range frontier {
				chunkBM.Set(gv)
			}
			exchangeFrontier()
			r.ChargeMem(price, 0, 0, nOwn+int64(len(frontier))+2*xc.row.len(), 0)
		}
		cur := dirm.Direction()
		if cur == dirheur.BottomUp {
			enterBottomUp()
		}

		var level int64 = 1
		for {
			var mfLocal, levScan int64
			if cur == dirheur.BottomUp {
				// ---- Bottom-up pull (replaces lines 5-7) ----
				// No transpose, no expand: the rank already holds its
				// block-column slice of the frontier bitmap. Each strip
				// scans its block's unvisited rows and emits at most one
				// parent candidate per row (early exit at the first
				// frontier in-edge).
				levScan = run.pulls[f.i][f.j].Pull(spOut, front, vis, rowLo, colLo, f.pool, &ar.pullScratch)
				chargePull(r, price, t, levScan, f.row.len(), xc.col.len(), int64(spOut.NNZ()))
			} else {
				// ---- TransposeVector (line 5), expand along the process column (line 6) ----
				parts := f.colG.Allgatherv(r, run.transpose(r, ar, frontier, 1), "expand")
				localF.Reset()
				var gathered int64
				for _, part := range parts {
					gathered += int64(len(part))
					for _, gv := range part {
						// Frontier values are the vertices' own ids: the
						// semiring multiply then delivers the correct parent.
						localF.Append(gv-colLo, gv)
					}
				}
				r.ChargeMem(price, 0, 0, 2*gathered, gathered)

				// ---- Local SpMSV (line 7) ----
				levScan = f.block.SpMSV(spOut, localF, spMSVOpts, f.pool, &ar.rowScratch)
				chargeSpMSV(r, price, t, levScan, f.row.len(), int64(spOut.NNZ()))
			}

			// ---- Fold: Alltoallv along the process row (line 8) ----
			// Send buffers are reused each level: receivers finish reading
			// them before their allreduce (or bitmap exchange), which
			// precedes the next fold. Both directions produce candidates
			// over block rows in spOut, so the fold is shared.
			send := f.send
			for k := range send {
				send[k] = send[k][:0]
			}
			cursor := 0
			for k := range send {
				pieceLo := pt.VecStart(f.i, k) - rowLo
				pieceHi := pt.VecStart(f.i, k+1) - rowLo
				for cursor < spOut.NNZ() && spOut.Ind[cursor] < pieceHi {
					if spOut.Ind[cursor] >= pieceLo {
						send[k] = append(send[k], spOut.Ind[cursor]+rowLo, spOut.Val[cursor])
					}
					cursor++
				}
			}
			recv := f.rowG.Alltoallv(r, send, "fold")

			// Merge the pc received pieces (select,max) over my range:
			// every piece arrives sorted, so a k-way merge does it in
			// O(W log pc) with no intermediate slices.
			var recvWords int64
			for _, part := range recv {
				recvWords += int64(len(part))
			}
			spvec.FoldMerge(merged, recv, vLo, &ar.mergeScratch)
			if price != nil {
				r.Charge(price.MemCost(0, 0, 2*recvWords, recvWords) / float64(t))
			}

			// ---- Mask visited and update (lines 9-11) ----
			// The new frontier goes into the buffer not currently visible
			// to remote readers (see the double-buffer note above).
			curBuf = 1 - curBuf
			frontier = ar.frontBuf[curBuf][:0]
			for k, vl := range merged.Ind {
				if parent[vl] == serial.Unreached {
					parent[vl] = merged.Val[k]
					dist[vl] = level
					frontier = append(frontier, vl+vLo)
				}
			}
			ar.frontBuf[curBuf] = frontier
			r.ChargeMem(price, int64(merged.NNZ()), nOwn, int64(merged.NNZ()), 0)
			// The heuristic needs the new frontier's out-edge volume.
			if opt.Direction == dirheur.ModeAuto {
				for _, gv := range frontier {
					mfLocal += g.ColDegree[gv]
				}
				r.ChargeMem(price, int64(len(frontier)), nOwn, 0, 0)
			}

			// ---- Termination (implicit in line 4) and direction ----
			// Both directions count the same owned discovery lists: with
			// the frontier bitmap partitioned across the grid
			// subcommunicators, no rank holds a global bitmap to count,
			// so bottom-up levels terminate through the same allreduce
			// as top-down ones, which carries the heuristic's mf too.
			found, next := lp.End(r, dirm, level, levScan, int64(len(frontier)), mfLocal)
			if found == 0 {
				break
			}
			switch {
			case cur == dirheur.BottomUp && next == dirheur.BottomUp:
				// Stay bottom-up: move the new frontier through the
				// partitioned exchange and fold the row-block slice into
				// the visited slice.
				bits.ClearWords(chunkBM.Words()[xc.own.lo:xc.own.hi])
				for _, gv := range frontier {
					chunkBM.Set(gv)
				}
				exchangeFrontier()
				bits.OrWords(vis.Words()[xc.row.lo:xc.row.hi], rowFront.Words()[xc.row.lo:xc.row.hi])
				r.ChargeMem(price, 0, 0, int64(len(frontier))+2*xc.row.len(), 0)
			case cur == dirheur.TopDown && next == dirheur.BottomUp:
				enterBottomUp()
			}
			// Bottom-up -> top-down needs no conversion: the sparse
			// owned frontier list is maintained in both directions.
			cur = next
			level++
		}

		// Report discovering levels only (the last iteration found none).
		levelsPer[r.ID()] = level - 1
	})

	out.Levels = levelsPer[0]
	out.TraversedEdges = traversedEdges(g, out.Dist)
	lp.Fill(&out.Profile)
	return out
}

// traversedEdges sums the stored out-degrees of reached vertices (the
// transposed blocks store edge u->v at column u, so ColDegree[u] is u's
// stored degree): one streaming pass over the distance array, the same
// sum-of-degrees-over-reached-vertices the 1D path computes from its
// local CSR (and, like there, TEPS bookkeeping rather than algorithm
// work — it is not charged to the simulated clock).
func traversedEdges(g *Graph, dist []int64) int64 {
	var total int64
	for u, d := range dist {
		if d != serial.Unreached {
			total += g.ColDegree[u]
		}
	}
	return total
}
