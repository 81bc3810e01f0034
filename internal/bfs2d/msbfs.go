package bfs2d

import (
	"fmt"
	mbits "math/bits"
	"slices"

	"repro/internal/bits"
	"repro/internal/cluster"
	"repro/internal/dirheur"
	"repro/internal/levels"
	"repro/internal/spmat"
	"repro/internal/spvec"
)

// batchRankArena is one rank's reusable multi-source scratch for the 2D
// driver: the frontier double buffer (MaskVecs of owned global ids),
// the new-discovery mask plane over the owned range, the three N-word
// mask planes of the partitioned bottom-up exchange (word index =
// vertex index, so deposits are exact and the OR merge never sees
// overlap), and the mask vectors of the expand and product; the
// transpose and fold send buffers are the rank's, shared with Run.
// Distances and parents are not arena state: the fold's first-visit
// commits write the per-search output planes directly (write-only
// during traversal — the visited plane carries all state), so the batch
// never stages a vertex-major copy it would have to transpose.
type batchRankArena struct {
	frontBuf [2]spvec.MaskVec
	ns       []int64  // newly discovered owned local indices
	newOwn   []uint64 // per-level discovery masks over owned range
	vis      []uint64 // N words; owned slice always maintained,
	// row-block slice maintained while bottom-up
	front, rowFront, chunk []uint64 // N-word planes of the bitmap exchange
	localF, spOut          spvec.MaskVec
	maskRowScratch         spmat.MaskRowScratch
	maskPullScratch        spmat.MaskPullScratch
}

// RunBatch executes one batched BFS over up to levels.BatchWidth sources on the
// grid: search k owns bit k of every mask, each level runs one transpose,
// one expand, one SpMSV, and one fold for the whole batch (or one
// partitioned mask-plane exchange and one pull bottom-up), so every
// collective is amortized across the batch. Frontier entries carry
// (vertex, mask) pairs — the vertex is its own parent payload — and fold
// entries carry (vertex, mask, parent) triples resolved first-wins at
// the owner. Searches retire from the active mask as their frontiers
// empty. Only the Dist2D vector layout supports batching (the diagonal
// layout exists for the Figure 4 imbalance experiment).
func RunBatch(w *cluster.World, grid *cluster.Grid, g *Graph, sources []int64, opt Options) (*levels.BatchOutput, error) {
	pt := g.Part
	if err := checkGrid(w, grid, pt); err != nil {
		return nil, err
	}
	if opt.Vector != Dist2D {
		return nil, fmt.Errorf("bfs2d: batched traversal requires the 2D vector distribution")
	}
	width := len(sources)
	if width < 1 || width > levels.BatchWidth {
		return nil, fmt.Errorf("bfs2d: batch width %d out of range [1,%d]", width, levels.BatchWidth)
	}
	for _, s := range sources {
		if s < 0 || s >= pt.N {
			return nil, fmt.Errorf("bfs2d: source %d out of range [0,%d)", s, pt.N)
		}
	}
	return run2DVectorBatch(w, grid, g, sources, opt), nil
}

func run2DVectorBatch(w *cluster.World, grid *cluster.Grid, g *Graph, sources []int64, opt Options) *levels.BatchOutput {
	run, release := prepare(w, grid, g, opt)
	defer release()
	pt, t, price := g.Part, run.t, opt.Price
	width := len(sources)
	wd := int64(width)

	// The fold's first-visit claims commit straight into the per-search
	// output planes (each rank owns a disjoint vector range).
	bt := levels.NewBatch(sources, pt.N, w.P)
	distPlanes, parentPlanes := bt.Out.Dist, bt.Out.Parent
	lp := levels.New(w, opt.Trace, nil)

	w.Run(func(r *cluster.Rank) {
		ar, f := run.enter(r)
		world := w.WorldGroup()
		ba := &ar.batch
		vLo, vHi, nOwn := f.own.lo, f.own.hi, f.own.len()
		rowLo, rowHi, colLo := f.row.lo, f.row.hi, f.col.lo
		newOwn := bits.GrownWords(ba.newOwn, nOwn)
		vis := bits.GrownWords(ba.vis, pt.N)
		ba.newOwn, ba.vis = newOwn, vis
		// Initialization streams the output planes (zeroed at allocation,
		// never-visited slots finalized by the rank tail) and mask planes
		// once.
		r.ChargeMem(price, 0, 0, 2*nOwn*wd+nOwn+pt.N, 0)

		// Seed: the owner of each source claims bit s; duplicate sources
		// stack bits on one frontier entry. Frontier entries stay sorted
		// by global id (sources seed via the same ns-sort path as level
		// commits, keeping the expand's merge-join invariant).
		frontier := &ba.frontBuf[0]
		frontier.Reset()
		ns := ba.ns[:0]
		for s, src := range sources {
			if si, sj := pt.VecOwner(src); si != f.i || sj != f.j {
				continue
			}
			sl := src - vLo
			bit := uint64(1) << uint(s)
			distPlanes[s][src] = 0
			parentPlanes[s][src] = src
			if newOwn[sl] == 0 {
				ns = append(ns, sl)
			}
			newOwn[sl] |= bit
			vis[src] |= bit
		}
		slices.Sort(ns)
		for _, sl := range ns {
			frontier.Append(vLo+sl, newOwn[sl], vLo+sl)
		}
		for _, sl := range ns {
			newOwn[sl] = 0
		}
		ba.ns = ns[:0]
		curBuf := 0

		localF, spOut := &ba.localF, &ba.spOut

		dirm := dirheur.NewBatch(opt.Direction, pt.N, run.totalAdj, width)
		// The partitioned mask-plane exchange holds one word per vertex,
		// so its owned, row-block, and block-column ranges are exact.
		xc := exchange{f.rowG, f.colG, price, f.own, f.row, f.col}
		var front, rowFront, chunk []uint64
		depositFrontier := func() {
			bits.ClearWords(chunk[vLo:vHi])
			for k, gv := range frontier.Ind {
				chunk[gv] = frontier.Mask[k]
			}
			r.ChargeMem(price, 0, 0, int64(frontier.NNZ()), 0)
		}
		// enterBottomUp assembles the row-block visited-mask slice from
		// the owned slices (always maintained by the fold's first-visit
		// claims) and moves the current frontier onto the mask planes.
		enterBottomUp := func() {
			front = bits.GrownWords(ba.front, pt.N)
			rowFront = bits.GrownWords(ba.rowFront, pt.N)
			chunk = bits.GrownWords(ba.chunk, pt.N)
			ba.front, ba.rowFront, ba.chunk = front, rowFront, chunk
			copy(chunk[vLo:vHi], vis[vLo:vHi])
			xc.rowHop(r, chunk, vis)
			depositFrontier()
			xc.frontier(r, chunk, rowFront, front)
			r.ChargeMem(price, 0, 0, nOwn+2*xc.row.len(), 0)
		}
		cur := dirm.Direction()
		active := levels.FullMask(width)
		if cur == dirheur.BottomUp {
			enterBottomUp()
		}

		var level int64 = 1
		for {
			var mfLocal, levScan int64
			var newOrLocal uint64
			var newCountLocal int64

			if cur == dirheur.BottomUp {
				// ---- Batched bottom-up pull ----
				levScan = run.pulls[f.i][f.j].PullMasks(spOut, front, vis, active,
					rowLo, colLo, f.pool, &ba.maskPullScratch)
				// The block-column frontier plane holds one word per
				// vertex, so its working set is the column's vertex count.
				chargePull(r, price, t, levScan, rowHi-rowLo, xc.col.len(), int64(spOut.NNZ()))
			} else {
				// ---- Transpose: (vertex, mask) pairs ----
				pairs := ar.pairs[:0]
				for k, gv := range frontier.Ind {
					pairs = append(pairs, gv, int64(frontier.Mask[k]))
				}
				ar.pairs = pairs
				transposed := run.transpose(r, ar, pairs, 2)

				// ---- Expand: pair lists along the process column ----
				parts := f.colG.Allgatherv(r, transposed, "expand")
				localF.Reset()
				var gathered int64
				for _, part := range parts {
					gathered += int64(len(part))
					for k := 0; k+1 < len(part); k += 2 {
						gv := part[k]
						// The frontier vertex is its own parent payload.
						localF.Append(gv-colLo, uint64(part[k+1]), gv)
					}
				}
				r.ChargeMem(price, 0, 0, 2*gathered, gathered)

				// ---- Batched local SpMSV ----
				levScan = f.block.SpMSVMasks(spOut, localF, f.pool, &ba.maskRowScratch)
				chargeSpMSV(r, price, t, levScan, rowHi-rowLo, int64(spOut.NNZ()))
			}

			// ---- Fold: (vertex, mask, parent) triples along the row ----
			// Both directions produce candidates over block rows in spOut.
			// The batched product is unsorted by row (and may emit several
			// disjoint-mask entries per row), so entries route to their
			// owner piece by VecOwner instead of the scalar path's sorted
			// cursor walk; the owner's first-wins mask fold needs no order.
			send := f.send
			for k := range send {
				send[k] = send[k][:0]
			}
			for k, rl := range spOut.Ind {
				gv := rl + rowLo
				_, pj := pt.VecOwner(gv)
				send[pj] = append(send[pj], gv, int64(spOut.Mask[k]), spOut.Par[k])
			}
			recv := f.rowG.Alltoallv(r, send, "fold")
			var sendWords, recvWords int64
			for k := range send {
				sendWords += int64(len(send[k]))
			}
			for _, part := range recv {
				recvWords += int64(len(part))
			}
			if price != nil {
				r.Charge(price.MemCost(int64(spOut.NNZ()), nOwn, sendWords+2*recvWords, recvWords) / float64(t))
			}

			// ---- Claim, commit and build the next frontier ----
			// Each received triple claims its not-yet-visited bits, first
			// wins with pieces in row-rank order, and commits them at once.
			curBuf = 1 - curBuf
			nextF := &ba.frontBuf[curBuf]
			ns := ba.ns[:0]
			var claims int64
			for _, part := range recv {
				for k := 0; k+2 < len(part); k += 3 {
					gv := part[k]
					m := uint64(part[k+1]) &^ vis[gv]
					if m == 0 {
						continue
					}
					vis[gv] |= m
					claims++
					vl := gv - vLo
					if newOwn[vl] == 0 {
						ns = append(ns, vl)
					}
					newOwn[vl] |= m
					for rem := m; rem != 0; rem &= rem - 1 {
						s := mbits.TrailingZeros64(rem)
						distPlanes[s][gv] = level
						parentPlanes[s][gv] = part[k+2]
					}
					pc := int64(mbits.OnesCount64(m))
					newCountLocal += pc
					newOrLocal |= m
					mfLocal += g.ColDegree[gv] * pc
				}
			}
			// Sort the discovery list so the next frontier (and its
			// transpose pieces) stay ascending for the expand merge-join.
			slices.Sort(ns)
			nextF.Reset()
			for _, vl := range ns {
				nextF.Append(vLo+vl, newOwn[vl], vLo+vl)
			}
			for _, vl := range ns {
				newOwn[vl] = 0
			}
			ba.ns = ns[:0]
			frontier = nextF
			r.ChargeMem(price, claims, nOwn, claims,
				int64(len(ns))*int64(mbits.Len64(uint64(len(ns)))))

			// ---- Termination, direction and retirement ----
			found, next := lp.End(r, dirm, level, levScan, newCountLocal, mfLocal)
			active = world.AllreduceOr(r, newOrLocal, "allreduce")
			bt.Retire(r, active, level)
			if found == 0 {
				break
			}
			switch {
			case cur == dirheur.BottomUp && next == dirheur.BottomUp:
				// Stay bottom-up: the new frontier bits are exactly the
				// newly visited bits, so the row hop's slice extends the
				// row-block visited plane.
				depositFrontier()
				xc.frontier(r, chunk, rowFront, front)
				bits.OrWords(vis[rowLo:rowHi], rowFront[rowLo:rowHi])
				r.ChargeMem(price, 0, 0, 2*xc.row.len(), 0)
			case cur == dirheur.TopDown && next == dirheur.BottomUp:
				enterBottomUp()
			}
			cur = next
			level++
		}

		bt.FinishRank(r, vLo, vis[vLo:vHi], level-1)
	})

	for id := 0; id < w.P; id++ {
		lo, _ := pt.OwnedRange(grid.RowOf(id), grid.ColOf(id))
		bt.CountEdges(id, func(vl int64) int64 { return g.ColDegree[lo+vl] })
	}
	lp.Fill(&bt.Out.Profile)
	return bt.Out
}
