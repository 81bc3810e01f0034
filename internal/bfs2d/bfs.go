package bfs2d

import (
	"fmt"
	mbits "math/bits"
	"slices"

	"repro/internal/bits"
	"repro/internal/cluster"
	"repro/internal/decis"
	"repro/internal/dirheur"
	"repro/internal/levels"
	"repro/internal/scratch"
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
	// Policy overrides the direction-switch thresholds; zero fields fall
	// back to dirheur.DefaultPolicy.
	Policy dirheur.Policy
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

// rankArena is one rank's scratch: the distance/parent working arrays
// (copied into the Output at assembly, so safely recycled), the frontier
// double buffer, fold send buffers, the rectangular transpose remap
// buffers, kernel scratches, the strip worker team, and the vectors of
// the level loop.
type rankArena struct {
	dist, parent          []int64
	frontBuf              [2][]int64
	send                  [][]int64
	sendT                 [][]int64 // rectangular transpose: per-world-rank routing buffers
	moved                 []int64   // rectangular transpose: collected sub-piece entries
	pairs                 []int64
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

// team returns the rank's persistent worker pool at width t, recycling
// the previous team when the width matches.
func (ar *rankArena) team(t int) *smp.Pool {
	ar.pool = smp.Team(ar.pool, t)
	return ar.pool
}

// Close releases the worker teams held by the arena. The arena remains
// usable; teams are respawned on demand.
func (a *Arena) Close() {
	for i := range a.ranks {
		a.ranks[i].pool.Close()
		a.ranks[i].pool = nil
	}
}

// DefaultOptions returns the paper's tuned flat 2D configuration.
func DefaultOptions() Options {
	return Options{Threads: 1, Kernel: spmat.KernelAuto, Vector: Dist2D}
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
	pt := g.Part
	t := opt.Threads
	if t < 1 {
		t = 1
	}
	p := w.P
	distLoc := make([][]int64, p)
	parentLoc := make([][]int64, p)
	levelsPer := make([]int64, p)
	lp := levels.New(w, opt.Trace, opt.Force)

	// The bottom-up phase pulls over the blocks' row-major views and
	// measures unexplored work against the total stored nonzeros.
	var pulls [][]*spmat.PullSplit
	var totalAdj int64
	if opt.Direction != dirheur.ModeTopDown {
		pulls = g.Pulls()
		totalAdj = g.NNZ()
	}

	arena := opt.Arena
	if arena == nil {
		arena = &Arena{}
		defer arena.Close()
	}
	arena.ranks = scratch.Ranks(arena.ranks, p)

	w.Run(func(r *cluster.Rank) {
		me := r.ID()
		i, j := grid.RowOf(me), grid.ColOf(me)
		price := opt.Price
		block := g.Blocks[i][j]
		rowG := grid.RowGroup(r)
		colG := grid.ColGroup(r)
		ar := &arena.ranks[me]

		vLo, vHi := pt.OwnedRange(i, j)
		nOwn := vHi - vLo
		dist := scratch.Grown(ar.dist, nOwn)
		parent := scratch.Grown(ar.parent, nOwn)
		ar.dist, ar.parent = dist, parent
		for k := range dist {
			dist[k] = serial.Unreached
			parent[k] = serial.Unreached
		}
		r.ChargeMem(price, 0, 0, 2*nOwn, 0)

		colLo := pt.ColStart(j)
		rowLo := pt.RowStart(i)
		rowHi := pt.RowStart(i + 1)

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
		if si, sj := pt.VecOwner(source); si == i && sj == j {
			dist[source-vLo] = 0
			parent[source-vLo] = source
			frontier = append(frontier, source)
			ar.frontBuf[0] = frontier
		}
		curBuf := 0

		// The hybrid variant runs one persistent worker per strip
		// (Algorithm 2's thread team); the flat variant runs strips inline.
		var pool *smp.Pool
		if t > 1 {
			pool = ar.team(t)
		}
		spMSVOpts := spmat.SpMSVOpts{Kernel: opt.Kernel}
		localF, spOut, merged := &ar.localF, &ar.spOut, &ar.merged
		if len(ar.send) != grid.Pc {
			ar.send = make([][]int64, grid.Pc)
		}
		send := ar.send

		// Rectangular grids route the transpose through per-world-rank
		// buffers (see the top-down branch below).
		square := grid.Square()
		if !square && len(ar.sendT) != p {
			ar.sendT = make([][]int64, p)
		}
		sendT := ar.sendT

		dirm := dirheur.New(opt.Direction, opt.Policy, pt.N, totalAdj)
		// The partitioned bitmap exchange runs over word ranges padded
		// to word boundaries.
		xc := exchange{rowG: rowG, colG: colG, price: price,
			own: span{vLo, vHi}.words(), row: span{rowLo, rowHi}.words(),
			col: span{colLo, pt.ColStart(j + 1)}.words()}
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
				levScan = pulls[i][j].Pull(spOut, front, vis, rowLo, colLo, pool, &ar.pullScratch)
				chargePull(r, price, t, levScan, rowHi-rowLo, xc.col.len(), int64(spOut.NNZ()))
			} else {
				// ---- TransposeVector (Algorithm 3 line 5) ----
				var transposed []int64
				if square {
					// My piece (block i, piece j) moves to P(j,i), so
					// process column i collectively receives vector
					// block i through the pairwise involution exchange.
					transposed = grid.All.SendRecvAll(r, grid.TransposePeer, frontier, "transpose")
				} else {
					// Rectangular remap: P(i,j) -> P(j,i) is no longer an
					// involution, so each frontier vertex routes to the
					// grid process collecting its sub-piece of its column
					// block (Part2D.TransposeOwner); sorting the
					// collected entries restores the ascending order the
					// expand's merge-join kernel relies on. Buffers are
					// reused per level with the fold's read-before-next-
					// collective discipline.
					for k := range sendT {
						sendT[k] = sendT[k][:0]
					}
					for _, gv := range frontier {
						ti, tj := pt.TransposeOwner(gv)
						sendT[ti*grid.Pc+tj] = append(sendT[ti*grid.Pc+tj], gv)
					}
					parts := grid.All.Alltoallv(r, sendT, "transpose")
					moved := ar.moved[:0]
					for _, part := range parts {
						moved = append(moved, part...)
					}
					slices.Sort(moved)
					ar.moved = moved
					transposed = moved
					mv := int64(len(moved))
					r.ChargeMem(price, 0, 0, int64(len(frontier))+2*mv,
						int64(len(frontier))+mv*int64(mbits.Len64(uint64(mv))))
				}

				// ---- Expand: Allgatherv along the process column (line 6) ----
				parts := colG.Allgatherv(r, transposed, "expand")
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
				levScan = block.Work(localF)
				block.SpMSV(spOut, localF, spMSVOpts, pool, &ar.rowScratch)
				chargeSpMSV(r, price, t, levScan, rowHi-rowLo, int64(spOut.NNZ()))
			}

			// ---- Fold: Alltoallv along the process row (line 8) ----
			// Send buffers are reused each level: receivers finish reading
			// them before their allreduce (or bitmap exchange), which
			// precedes the next fold. Both directions produce candidates
			// over block rows in spOut, so the fold is shared.
			for k := range send {
				send[k] = send[k][:0]
			}
			cursor := 0
			for k := 0; k < grid.Pc; k++ {
				pieceLo := pt.VecStart(i, k) - rowLo
				pieceHi := pt.VecStart(i, k+1) - rowLo
				for cursor < spOut.NNZ() && spOut.Ind[cursor] < pieceHi {
					if spOut.Ind[cursor] >= pieceLo {
						send[k] = append(send[k], spOut.Ind[cursor]+rowLo, spOut.Val[cursor])
					}
					cursor++
				}
			}
			recv := rowG.Alltoallv(r, send, "fold")

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

			// ---- Termination (implicit in line 4) ----
			// Both directions count the same owned discovery lists: with
			// the frontier bitmap partitioned across the grid
			// subcommunicators, no rank holds a global bitmap to count,
			// so bottom-up levels terminate through the same allreduce
			// as top-down ones (the statistic the direction heuristic
			// consumes anyway; its value equals the old global bitmap
			// count, so traces are unchanged).
			totalNew := w.WorldGroup().AllreduceSum(r, int64(len(frontier)), "allreduce")
			lp.Level(r, cur, levScan, totalNew)
			if totalNew == 0 {
				break
			}

			// ---- Direction decision for the next level ----
			next := lp.Next(r, dirm, level, totalNew, mfLocal)
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

		distLoc[me] = dist
		parentLoc[me] = parent
		// Report discovering levels only (the last iteration found none).
		levelsPer[me] = level - 1
	})

	out := assemble(pt, grid, g, source, distLoc, parentLoc, levelsPer[0])
	lp.Fill(&out.Profile)
	return out
}

// assemble gathers the per-rank vector pieces into global arrays and
// computes the traversed-edge count: one streaming pass over the distance
// array against the distribution-time column degrees, the same
// sum-of-degrees-over-reached-vertices the 1D path computes from its
// local CSR (and, like there, TEPS bookkeeping rather than algorithm
// work — it is not charged to the simulated clock).
func assemble(pt Part2D, grid *cluster.Grid, g *Graph, source int64,
	distLoc, parentLoc [][]int64, levelCount int64) *levels.Output {

	out := &levels.Output{Source: source, Levels: levelCount}
	out.Dist = make([]int64, pt.N)
	out.Parent = make([]int64, pt.N)
	for id := 0; id < grid.Pr*grid.Pc; id++ {
		i, j := grid.RowOf(id), grid.ColOf(id)
		lo, _ := pt.OwnedRange(i, j)
		copy(out.Dist[lo:], distLoc[id])
		copy(out.Parent[lo:], parentLoc[id])
	}
	out.TraversedEdges = traversedEdges(g, out.Dist)
	return out
}

// traversedEdges sums the stored out-degrees of reached vertices (the
// transposed blocks store edge u->v at column u, so ColDegree[u] is u's
// stored degree).
func traversedEdges(g *Graph, dist []int64) int64 {
	var total int64
	for u, d := range dist {
		if d != serial.Unreached {
			total += g.ColDegree[u]
		}
	}
	return total
}
