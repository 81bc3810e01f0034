package bfs1d

import (
	mbits "math/bits"

	"repro/internal/bits"
	"repro/internal/cluster"
	"repro/internal/dirheur"
	"repro/internal/levels"
	"repro/internal/spmat"
)

// batchRankArena is one rank's reusable multi-source scratch, every
// piece sized to the rank's own block rather than to N: the frontier
// index double buffer with its mask planes and the visited-mask plane
// (nloc words each), the send-side dedup window over one owner block
// (⌈N/p⌉ words, reused by every owner pass of the push), the push's
// per-frontier-entry adjacency cursors, and the triple buffers of the
// exchange. The bottom-up frontier plane is not arena state: the pull
// reads the N-word plane the bitmap collective returns. Distances and
// parents are not arena state either: commits write the per-search
// output planes directly (they are write-only during traversal — the
// visited masks carry all state), so the batch never materializes a
// vertex-major copy it would have to transpose. Owned by rankArena so
// scalar and batched runs share the worker team and thread scratch.
type batchRankArena struct {
	fsBuf   [2][]int64  // frontier local indices, double buffered
	maskBuf [2][]uint64 // frontier mask planes, nloc words each
	visMask []uint64    // visited masks over owned vertices
	pend    []uint64    // send-dedup masks over one owner block, ⌈N/p⌉ words
	cursor  []int64     // next unscanned adjacency slot per frontier entry
	send    [][]int64   // per-owner (vertex, mask, parent) triples
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
// Each rank's scratch is O(N/p) words, as in the paper's 1D design:
// the top-down push runs owner-major. Rows are sorted and owner blocks
// are contiguous id ranges, so for each owner in turn the push walks
// the frontier in order and scans each row's run of neighbours inside
// that owner's block, resuming from a per-entry cursor. Every send
// buffer thus receives its triples in frontier order, exactly as a
// row-major scan would emit them, while send dedup needs a window over
// one owner block only, and no edge pays an owner division. Hybrid
// workers still scan row-major into their thread-local stacks; the
// serial merge drains them owner by owner through the same window.
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
		pend := bits.GrownWords(ba.pend, (pt.N+int64(p)-1)/int64(p))
		ba.visMask, ba.pend = visMask, pend
		// Initialization streams the output planes (zeroed at allocation,
		// never-visited slots finalized by the rank tail) and mask planes
		// once. The model prices the dedup and frontier planes of an MPI
		// rank, N words each.
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

			// claim commits the not-yet-visited bits of one discovery
			// triple, first wins; shared by the local shortcut, the
			// all-to-all integration, and the pull commit.
			claim := func(vl int64, m uint64, pu int64) {
				if m &^= visMask[vl]; m == 0 {
					return
				}
				visMask[vl] |= m
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
				// prices. The pull reads the collective's plane in place:
				// it stays valid until this rank's next world collective,
				// the level's termination sum after the pull.
				frontG := world.AllgatherBitsBlocks(r, fMask[:nloc], start, pt.N, "bitmap")
				r.ChargeMem(price, 0, 0, nloc+2*pt.N, 0)

				// Each worker pulls one chunk (a flat run its one chunk
				// inline) and the commit runs in chunk order:
				// deterministic outputs regardless of worker scheduling.
				// The kernel reads the visited plane read-only; claim
				// marks the pulled bits visited here.
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
						claim(lo+rl, ts.pullMask.Mask[k], ts.pullMask.Par[k])
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
				var adjWords, localHits int64
				cursor := ba.cursor[:0]
				if t > 1 {
					// Hybrid expansion: row-major into thread-local
					// triple stacks. The serial merge drains the local
					// candidates here and the send stacks owner by owner
					// below, each in thread order, so claims see
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
							claim(ts.local[k], uint64(ts.local[k+1]), ts.local[k+2])
						}
					}
				} else {
					for _, ul := range fs {
						cursor = append(cursor, lg.XAdj[ul])
					}
					ba.cursor = cursor
				}
				// Owner-major push: owner o's triples, in frontier order,
				// then its dedup window cleared by the triples just sent.
				var sendWords int64
				for o := range send {
					base, end := pt.Start(o), pt.End(o)
					buf := send[o][:0]
					if t > 1 {
						for th := range tstate {
							q := tstate[th].send[o]
							for k := 0; k+2 < len(q); k += 3 {
								v, m := q[k], uint64(q[k+1])
								if opt.DedupSends {
									if m &^= pend[v-base]; m == 0 {
										continue
									}
									pend[v-base] |= m
								}
								buf = append(buf, v, int64(m), q[k+2])
							}
						}
					} else {
						local := opt.LocalShortcut && o == me
						for i, ul := range fs {
							c, stop := cursor[i], lg.XAdj[ul+1]
							ug := start + ul
							m := fMask[ul]
							first := c
							for ; c < stop; c++ {
								v := int64(lg.Adj[c])
								if v >= end {
									break
								}
								if local {
									claim(v-start, m, ug)
									continue
								}
								mm := m
								if opt.DedupSends {
									if mm &^= pend[v-base]; mm == 0 {
										continue
									}
									pend[v-base] |= mm
								}
								buf = append(buf, v, int64(mm), ug)
							}
							cursor[i] = c
							adjWords += c - first
							if local {
								localHits += c - first
							}
						}
					}
					if opt.DedupSends {
						for k := 0; k+2 < len(buf); k += 3 {
							pend[buf[k]-base] = 0
						}
					}
					send[o] = buf
					sendWords += int64(len(buf))
				}
				if price != nil {
					par := price.MemCost(int64(len(fs))+localHits, nloc, adjWords+sendWords, adjWords)
					if t > 1 {
						par += price.MemCost(0, 0, sendWords, 0)
					}
					levels.ChargeHybrid(r, price, t, par, 0, 3)
				}

				// ---- Triple all-to-all: one exchange for the batch ----
				// Integration claims the triples as they stand, pieces
				// in rank order, so the first sender wins each bit. It
				// is priced as one random visited-mask probe per
				// received triple, streaming the triples once.
				recv := world.Alltoallv(r, send, "a2a")
				var recvWords int64
				for _, q := range recv {
					recvWords += int64(len(q))
					for k := 0; k+2 < len(q); k += 3 {
						claim(q[k]-start, uint64(q[k+1]), q[k+2])
					}
				}
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
