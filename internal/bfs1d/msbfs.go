package bfs1d

import (
	mbits "math/bits"

	"repro/internal/bits"
	"repro/internal/cluster"
	"repro/internal/dirheur"
	"repro/internal/levels"
	"repro/internal/spmat"
	"repro/internal/spvec"
)

// batchRankArena is one rank's reusable multi-source scratch: the
// frontier index double buffer with its mask planes, the visited-mask
// plane, the send-side dedup plane, the global frontier plane of
// bottom-up levels, and the triple buffers of the exchanges. Distances
// and parents are NOT arena state: commits write the per-search output
// planes directly (they are write-only during traversal — the visited
// masks carry all state), so the batch never materializes a
// vertex-major copy it would have to transpose. Owned by rankArena so
// scalar and batched runs share the worker team and thread scratch.
type batchRankArena struct {
	fsBuf   [2][]int64  // frontier local indices, double buffered
	maskBuf [2][]uint64 // frontier mask planes, nloc words each
	visMask []uint64    // visited masks over owned vertices
	pend    []uint64    // per-level send-dedup masks, N words
	frontG  []uint64    // global frontier plane, N words
	send    [][]int64   // per-owner (vertex, mask, parent) triples
	merged  spvec.MaskVec
}

// pullMasks is pull over a batch's mask planes: it scans worker th's
// chunk of the owned rows for the active searches.
func (ts *threadScratch) pullMasks(in *spmat.PullCSR, front, vis []uint64, active uint64, th, t int, n int64) {
	lo, hi := chunkOf(th, t, n)
	ts.adjWords = in.SubRows(lo, hi).PullMasks(&ts.pullMask, front, vis, active, lo, 0)
}

// RunBatch executes one batched BFS over up to levels.BatchWidth sources
// simultaneously: search k of the batch owns bit k of every mask, one
// adjacency scan advances all searches, and every collective carries the
// whole batch's frontier — one all-to-all (of (vertex, mask, parent)
// triples) or one mask-plane allgather per level, instead of one per
// search per level. Searches retire from the active mask as their
// frontiers empty (the per-level OR-allreduce), so late levels scan only
// for the searches still running.
//
// Direction optimization follows opt.Direction with aggregate statistics
// (dirheur.NewBatch): the whole batch switches together.
func RunBatch(w *cluster.World, g *Graph, sources []int64, opt Options) *levels.BatchOutput {
	t, ins, arena, release := prepare(w, g, opt)
	defer release()
	width := len(sources)
	if width < 1 || width > levels.BatchWidth {
		panic("bfs1d: batch width out of range")
	}
	for _, s := range sources {
		if s < 0 || s >= g.Part.N {
			panic("bfs1d: source out of range")
		}
	}
	pt := g.Part
	p := pt.P
	world := w.WorldGroup()
	wd := int64(width)

	// Rank bodies commit straight into the per-search output planes
	// (disjoint [start, start+nloc) ranges).
	bt := levels.NewBatch(sources, pt.N, p)
	distPlanes, parentPlanes := bt.Out.Dist, bt.Out.Parent
	lp := levels.New(w, opt.Trace, nil)

	w.Run(func(r *cluster.Rank) {
		me := r.ID()
		lg := g.Locals[me]
		nloc := pt.Count(me)
		start := pt.Start(me)
		price := opt.Price
		ar := &arena.ranks[me]
		ba := &ar.batch

		visMask := bits.GrownWords(ba.visMask, nloc)
		ba.maskBuf[0] = bits.GrownWords(ba.maskBuf[0], nloc)
		ba.maskBuf[1] = bits.GrownWords(ba.maskBuf[1], nloc)
		pend := bits.GrownWords(ba.pend, pt.N)
		frontG := bits.GrownWords(ba.frontG, pt.N)
		ba.visMask, ba.pend, ba.frontG = visMask, pend, frontG
		// Initialization streams the output planes (zeroed at allocation,
		// never-visited slots finalized by the rank tail) and mask planes
		// once.
		r.ChargeMem(price, 0, 0, 2*nloc*wd+2*nloc+2*pt.N, 0)

		// Seed the batch: bit s of the owner's mask plane, distance 0.
		// Duplicate sources just stack bits on the same vertex.
		fs := ba.fsBuf[0][:0]
		fMask := ba.maskBuf[0]
		nextMask := ba.maskBuf[1]
		for s, src := range sources {
			if pt.Owner(src) != me {
				continue
			}
			sl := src - start
			bit := uint64(1) << uint(s)
			distPlanes[s][src] = 0
			parentPlanes[s][src] = src
			if fMask[sl] == 0 {
				fs = append(fs, sl)
			}
			fMask[sl] |= bit
			visMask[sl] |= bit
		}
		ba.fsBuf[0] = fs
		curBuf := 0

		if len(ba.send) != p {
			ba.send = make([][]int64, p)
		}
		send := ba.send
		pool, tstate := ar.workers(t, p)

		dirm := dirheur.NewBatch(opt.Direction, pt.N, g.TotalAdj, width)
		var inPull *spmat.PullCSR
		if ins != nil {
			inPull = ins[me].PullView(pt.N)
		}
		cur := dirm.Direction()
		active := levels.FullMask(width)

		var level int64 = 1
		var ns []int64
		for {
			var mfLocal, levScan int64
			var newOrLocal uint64
			var newCountLocal int64
			curBuf = 1 - curBuf
			ns = ba.fsBuf[curBuf][:0]

			// commitEntry claims the not-yet-visited bits of one
			// discovery triple; shared by the local shortcut, the
			// all-to-all integration, and the pull commit. The caller
			// guarantees m has no visited bits (mask-diffed upstream).
			commitEntry := func(vl int64, m uint64, pu int64) {
				if nextMask[vl] == 0 {
					ns = append(ns, vl)
				}
				nextMask[vl] |= m
				vg := start + vl
				for rem := m; rem != 0; rem &= rem - 1 {
					s := mbits.TrailingZeros64(rem)
					distPlanes[s][vg] = level
					parentPlanes[s][vg] = pu
				}
				pc := int64(mbits.OnesCount64(m))
				newCountLocal += pc
				newOrLocal |= m
				mfLocal += (lg.XAdj[vl+1] - lg.XAdj[vl]) * pc
			}

			if cur == dirheur.BottomUp {
				// ---- Batched bottom-up level ----
				// The whole batch's frontier moves as one N-word mask
				// plane (word index = vertex index), assembled from the
				// p owned slices exactly like the scalar bitmap — one
				// collective for all 64 searches, 64x the words of the
				// one-bit bitmap: the volume trade the performance model
				// prices.
				copy(frontG, world.AllgatherBitsBlocks(r,
					fMask[:nloc], start, pt.N, "bitmap"))
				r.ChargeMem(price, 0, 0, nloc+2*pt.N, 0)

				// Each worker pulls one chunk (a flat run its one chunk
				// inline) and the commit runs in chunk order:
				// deterministic outputs regardless of worker scheduling.
				// PullMasks emits only unvisited bits, but the visited
				// plane must be updated here (the kernel reads it
				// read-only per chunk).
				if t > 1 {
					pool.Do(t, func(th int) { tstate[th].pullMasks(inPull, frontG, visMask, active, th, t, nloc) })
				} else {
					tstate[0].pullMasks(inPull, frontG, visMask, active, 0, 1, nloc)
				}
				for th := range tstate {
					ts := &tstate[th]
					levScan += ts.adjWords
					lo, _ := chunkOf(th, t, nloc)
					for k, rl := range ts.pullMask.Ind {
						visMask[lo+rl] |= ts.pullMask.Mask[k]
						commitEntry(lo+rl, ts.pullMask.Mask[k], ts.pullMask.Par[k])
					}
				}
				// Charge the pull: one random frontier-plane probe per
				// scanned entry against the N-word plane, the adjacency
				// and visited-mask streams, plus the hybrid serial
				// commit and barriers.
				if price != nil {
					levels.ChargeHybrid(r, price, t,
						price.MemCost(levScan, pt.N, levScan+nloc, levScan), 2*newCountLocal, 3)
				}
			} else {
				// ---- Batched top-down level ----
				for j := range send {
					send[j] = send[j][:0]
				}
				var adjWords, localHits int64
				if t > 1 {
					// Hybrid expansion: thread-local triple stacks,
					// merged serially in thread order so claims see
					// discoveries in the flat algorithm's frontier order.
					curFS := fs
					pool.Do(t, func(th int) {
						ts := &tstate[th]
						for o := range ts.send {
							ts.send[o] = ts.send[o][:0]
						}
						ts.local = ts.local[:0]
						ts.adjWords, ts.localHits = 0, 0
						lo, hi := chunkOf(th, t, int64(len(curFS)))
						for _, ul := range curFS[lo:hi] {
							ug := start + ul
							m := fMask[ul]
							for _, id := range lg.Neighbors(ul) {
								v := int64(id)
								ts.adjWords++
								o := pt.Owner(v)
								if opt.LocalShortcut && o == me {
									ts.localHits++
									vl := v - start
									// Read-only filter against the
									// pre-level visited plane; the serial
									// merge re-diffs.
									if m&^visMask[vl] != 0 {
										ts.local = append(ts.local, vl, int64(m), ug)
									}
									continue
								}
								ts.send[o] = append(ts.send[o], v, int64(m), ug)
							}
						}
					})
					for th := range tstate {
						ts := &tstate[th]
						adjWords += ts.adjWords
						localHits += ts.localHits
						for k := 0; k+2 < len(ts.local); k += 3 {
							vl, ug := ts.local[k], ts.local[k+2]
							if add := uint64(ts.local[k+1]) &^ visMask[vl]; add != 0 {
								visMask[vl] |= add
								commitEntry(vl, add, ug)
							}
						}
						for o := range ts.send {
							for k := 0; k+2 < len(ts.send[o]); k += 3 {
								v, m := ts.send[o][k], uint64(ts.send[o][k+1])
								if opt.DedupSends {
									if m &^= pend[v]; m == 0 {
										continue
									}
									pend[v] |= m
								}
								send[o] = append(send[o], v, int64(m), ts.send[o][k+2])
							}
						}
					}
				} else {
					for _, ul := range fs {
						ug := start + ul
						m := fMask[ul]
						for _, id := range lg.Neighbors(ul) {
							v := int64(id)
							adjWords++
							o := pt.Owner(v)
							if opt.LocalShortcut && o == me {
								localHits++
								vl := v - start
								if add := m &^ visMask[vl]; add != 0 {
									visMask[vl] |= add
									commitEntry(vl, add, ug)
								}
								continue
							}
							mm := m
							if opt.DedupSends {
								if mm &^= pend[v]; mm == 0 {
									continue
								}
								pend[v] |= mm
							}
							send[o] = append(send[o], v, int64(mm), ug)
						}
					}
				}
				var sendWords int64
				for j := range send {
					sendWords += int64(len(send[j]))
				}
				if opt.DedupSends {
					// Clear only the dedup words this level touched.
					for j := range send {
						for k := 0; k+2 < len(send[j]); k += 3 {
							pend[send[j][k]] = 0
						}
					}
				}
				if price != nil {
					par := price.MemCost(int64(len(fs))+localHits, nloc, adjWords+sendWords, adjWords)
					if t > 1 {
						par += price.MemCost(0, 0, sendWords, 0)
					}
					levels.ChargeHybrid(r, price, t, par, 0, 3)
				}

				// ---- Triple all-to-all: one exchange for the batch ----
				recv := world.Alltoallv(r, send, "a2a")
				var recvWords int64
				for _, q := range recv {
					recvWords += int64(len(q))
				}
				spvec.FoldMasks(&ba.merged, recv, start, visMask)
				mg := &ba.merged
				for k, vl := range mg.Ind {
					commitEntry(vl, mg.Mask[k], mg.Par[k])
				}
				// Integration: one random visited-mask probe per received
				// triple, streaming the triples once.
				r.ChargeMem(price, recvWords/3, nloc, recvWords, 0)
				levScan = adjWords
			}

			// ---- Level termination, direction and retirement ----
			// One sum (aggregate discoveries, the heuristic's nf and the
			// trace profile, beside its mf under Auto) and one OR (which
			// searches discovered — searches absent retire from the
			// active mask, so bottom-up candidate scans stop probing for
			// them).
			found, next := lp.End(r, dirm, level, levScan, newCountLocal, mfLocal)
			active = world.AllreduceOr(r, newOrLocal, "allreduce")
			bt.Retire(r, active, level)
			if found == 0 {
				break
			}
			cur = next

			// Swap the frontier double buffer: clear the old mask plane
			// by its index list (O(frontier)), promote the new one.
			for _, ul := range fs {
				fMask[ul] = 0
			}
			ba.fsBuf[curBuf] = ns
			fs = ns
			fMask, nextMask = nextMask, fMask
			r.ChargeMem(price, 0, 0, int64(len(fs)), 0)
			level++
		}

		bt.FinishRank(r, start, visMask[:nloc], level-1)
	})

	for i := 0; i < p; i++ {
		xadj := g.Locals[i].XAdj
		bt.CountEdges(i, func(vl int64) int64 { return xadj[vl+1] - xadj[vl] })
	}
	lp.Fill(&bt.Out.Profile)
	return bt.Out
}
