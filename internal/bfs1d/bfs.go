package bfs1d

import (
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

// Options configures a 1D BFS run.
type Options struct {
	// Threads is the intra-rank threading width: 1 (or 0) is the flat
	// algorithm, >1 the hybrid algorithm with thread-local buffers merged
	// per level (Algorithm 2's tBuf stacks). Threads run on real
	// goroutines (an internal/smp worker pool), so the hybrid variant is
	// measured in wall-clock time as well as priced in simulated time.
	// Its outputs are bit-identical to the flat algorithm's: thread-local
	// buffers are merged in frontier order.
	Threads int
	// LocalShortcut updates locally-owned discoveries in place instead of
	// routing them through the all-to-all like the reference code does.
	// This is one of the work-efficiency optimizations distinguishing the
	// paper's 1D implementation from the Graph 500 reference (Section 6).
	LocalShortcut bool
	// DedupSends filters duplicate remote discoveries with a per-rank
	// bitmap before the all-to-all, so each distinct target vertex is
	// sent at most once per level — the other Section 6 work-efficiency
	// optimization. It reduces both the real exchanged volume and the
	// modeled sendWords.
	DedupSends bool
	// Price charges local computation to the simulated clock; nil prices
	// nothing (pure correctness mode).
	Price cluster.Pricer
	// Direction selects the per-level traversal policy. The zero value
	// (dirheur.ModeTopDown) is the classic push-only level loop;
	// dirheur.ModeAuto applies the Beamer alpha/beta heuristic and runs
	// the dense middle levels bottom-up over the in-adjacency;
	// dirheur.ModeBottomUp pulls every level. Bottom-up levels exchange
	// the frontier as a dense bitmap assembled from owned word chunks
	// (cluster.AllgatherBitsBlocks) instead of the sparse all-to-all.
	Direction dirheur.Mode
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
	// the partition or thread shape changes.
	Arena *Arena
}

// Arena is the reusable cross-run scratch of Run: one arena per rank,
// indexed by rank id. The zero value is ready to use.
type Arena struct {
	ranks []rankArena
}

// rankArena is one rank's scratch: the frontier double buffer,
// per-owner send buffers, the dedup bitmap, the worker team and
// thread-local stacks, and the bottom-up phase's bitmaps (the global
// frontier, the rank's all-gather contribution, and the owned-range
// visited set).
type rankArena struct {
	fsBuf  [2][]int64
	send   [][]int64
	dedup  *bits.Bitmap
	pool   *smp.Pool
	tstate []threadScratch
	front  *bits.Bitmap   // global frontier, N bits
	chunk  *bits.Bitmap   // owned contribution to the next frontier, N bits
	ownVis *bits.Bitmap   // visited flags over owned vertices, nloc bits
	batch  batchRankArena // multi-source (RunBatch) planes and buffers
}

// workers returns the rank's worker team and its t thread scratches.
// At t = 1 the team is nil, the single chunk runs inline, and the one
// scratch holds no send stacks: the flat push writes the rank's own
// send table. A wider team is recycled while the width matches, and
// each of its scratches holds send stacks for p owners.
func (ar *rankArena) workers(t, p int) (*smp.Pool, []threadScratch) {
	if t == 1 {
		if len(ar.tstate) != 1 || ar.tstate[0].send != nil {
			ar.tstate = make([]threadScratch, 1)
		}
		return nil, ar.tstate
	}
	if len(ar.tstate) != t || len(ar.tstate[0].send) != p {
		ar.tstate = make([]threadScratch, t)
		for th := range ar.tstate {
			ar.tstate[th].send = make([][]int64, p)
		}
	}
	ar.pool = smp.Team(ar.pool, t)
	return ar.pool, ar.tstate
}

// Close releases the worker teams held by the arena. The arena remains
// usable; teams are respawned on demand.
func (a *Arena) Close() {
	for i := range a.ranks {
		a.ranks[i].pool.Close()
		a.ranks[i].pool = nil
	}
}

// threadScratch is one worker's thread-local buffers: per-owner send
// stacks and local-discovery candidates for the hybrid push phase, the
// pull kernel's candidate vector for the bottom-up phase, plus the
// volume counters that feed the performance model. Workers fill their
// scratch in parallel with no shared mutable state; the serial merge
// drains them in thread order. A flat run has one scratch and pulls its
// one chunk inline.
type threadScratch struct {
	send      [][]int64     // per-owner (target, parent) pair stacks
	local     []int64       // (local index, parent) candidate pairs
	pullOut   spvec.Vec     // bottom-up (chunk-local row, parent) candidates
	pullMask  spvec.MaskVec // batched bottom-up (chunk-local row, mask, parent)
	adjWords  int64
	localHits int64
}

// chunkOf returns worker th's share [lo, hi) of n items cut into t
// contiguous chunks. Every hybrid phase splits its work this way, so
// merging the workers' buffers in worker order replays the flat order.
func chunkOf(th, t int, n int64) (lo, hi int64) {
	sz := (n + int64(t) - 1) / int64(t)
	return min(int64(th)*sz, n), min(int64(th+1)*sz, n)
}

// pull scans worker th's chunk of the owned rows of in against the
// frontier bitmap into the worker's candidate vector.
func (ts *threadScratch) pull(in *spmat.PullCSR, front, vis *bits.Bitmap, th, t int, n int64) {
	lo, hi := chunkOf(th, t, n)
	ts.adjWords = in.SubRows(lo, hi).Pull(&ts.pullOut, front, vis, lo)
}

// prepare does the per-run set-up Run and RunBatch share: it checks the
// world against the partition, clamps the thread width, builds the
// in-adjacency unless the run is top-down only, and sizes the arena.
// Without opt.Arena the run gets a private arena, whose worker teams
// release closes.
func prepare(w *cluster.World, g *Graph, opt Options) (t int, ins []*LocalGraph, arena *Arena, release func()) {
	if w.P != g.Part.P {
		panic("bfs1d: world size != partition size")
	}
	// The bottom-up phase pulls over the in-adjacency; built lazily, and
	// identical in content to the push CSR for symmetrized inputs.
	if opt.Direction != dirheur.ModeTopDown {
		ins = g.Ins()
	}
	arena, release = opt.Arena, func() {}
	if arena == nil {
		arena = &Arena{}
		release = arena.Close
	}
	arena.ranks = scratch.Ranks(arena.ranks, w.P)
	return max(opt.Threads, 1), ins, arena, release
}

// Run executes a BFS from source over the distributed graph on the given
// world. The world size must equal the partition's rank count.
func Run(w *cluster.World, g *Graph, source int64, opt Options) *levels.Output {
	t, ins, arena, release := prepare(w, g, opt)
	defer release()
	if source < 0 || source >= g.Part.N {
		panic("bfs1d: source out of range")
	}
	pt := g.Part
	p := pt.P
	world := w.WorldGroup()

	// Every rank writes its answers straight into its owned range of the
	// output arrays, which are fresh per run so a returned result is never
	// overwritten by a later search.
	out := &levels.Output{Source: source, Dist: make([]int64, pt.N), Parent: make([]int64, pt.N)}
	levelsPer := make([]int64, p)
	edgesPer := make([]int64, p)
	lp := levels.New(w, opt.Trace, opt.Force)

	w.Run(func(r *cluster.Rank) {
		me := r.ID()
		lg := g.Locals[me]
		nloc := pt.Count(me)
		start := pt.Start(me)
		price := opt.Price
		ar := &arena.ranks[me]

		dist := out.Dist[start : start+nloc]
		parent := out.Parent[start : start+nloc]
		for i := range dist {
			dist[i] = serial.Unreached
			parent[i] = serial.Unreached
		}
		// Initialization streams both arrays once.
		r.ChargeMem(price, 0, 0, 2*nloc, 0)

		// Per-rank scratch arena: send buffers, the frontier double
		// buffer, the dedup bitmap, and the worker team all persist
		// across levels, so steady-state levels allocate nothing. The
		// frontier buffers never leave the rank; send buffers are handed
		// to the all-to-all by reference, but receivers finish reading
		// them before the level's allreduce, which precedes the next
		// level's writes.
		fs := ar.fsBuf[0][:0] // local indices of current frontier
		if pt.Owner(source) == me {
			sl := source - start
			dist[sl] = 0
			parent[sl] = source
			fs = append(fs, sl)
			ar.fsBuf[0] = fs
		}
		curBuf := 0
		if len(ar.send) != p {
			ar.send = make([][]int64, p)
		}
		send := ar.send
		var dedup *bits.Bitmap
		if opt.DedupSends {
			if ar.dedup == nil || ar.dedup.Len() != pt.N {
				ar.dedup = bits.NewBitmap(pt.N)
			}
			dedup = ar.dedup
		}
		pool, tstate := ar.workers(t, p)

		mode := opt.Direction
		dirm := dirheur.New(mode, pt.N, g.TotalAdj)
		bitmapWords := (pt.N + 63) / 64
		// The rank's deposit in the bitmap exchange is the word range
		// covering its owned vertices: the collective assembles the
		// global bitmap from the p owned chunks (an allgatherv, exactly
		// how MPI codes move the dense frontier) instead of OR-ing p
		// full-length contributions. The 1D pull scans in-edges from
		// every column, so unlike the 2D driver's partitioned slices the
		// assembled frontier must stay global here.
		ownWLo, ownWHi := start/64, (start+nloc+63)/64
		var front, chunk, ownVis *bits.Bitmap
		var inPull *spmat.PullCSR
		// enterBottomUp converts the rank to pull state at a level
		// boundary: visited flags rebuilt from the distance array, the
		// newly discovered frontier densified into the chunk bitmap, and
		// one bitmap exchange to give every rank the global frontier.
		// Every rank takes the decision from the same global statistics,
		// so the collective schedules stay aligned.
		enterBottomUp := func(newFront []int64) {
			front = bits.Grown(ar.front, pt.N)
			chunk = bits.Grown(ar.chunk, pt.N)
			ownVis = bits.Grown(ar.ownVis, nloc)
			ar.front, ar.chunk, ar.ownVis = front, chunk, ownVis
			inPull = ins[me].PullView(pt.N)
			for i := int64(0); i < nloc; i++ {
				if dist[i] != serial.Unreached {
					ownVis.Set(i)
				}
			}
			for _, vl := range newFront {
				chunk.Set(start + vl)
			}
			front.CopyFrom(world.AllgatherBitsBlocks(r,
				chunk.Words()[ownWLo:ownWHi], ownWLo, bitmapWords, "bitmap"))
			r.ChargeMem(price, 0, 0, nloc+int64(len(newFront))+3*bitmapWords, 0)
		}
		cur := dirm.Direction()
		if cur == dirheur.BottomUp {
			enterBottomUp(fs)
		}

		var level int64 = 1
		var ns []int64
		for {
			var found, mfLocal, levScan int64
			var next dirheur.Direction
			if cur == dirheur.BottomUp {
				// ---- Bottom-up pull level ----
				// Each unvisited owned vertex scans its in-adjacency
				// against the global frontier bitmap and adopts the first
				// frontier parent (early exit). Each worker pulls one
				// aligned chunk of the owned range into its candidate
				// vector (a flat run pulls its one chunk inline); the
				// serial commit then applies the vectors in chunk order,
				// so outputs are identical for every thread count. Only
				// the owned word range of the contribution bitmap is ever
				// set, so only it needs clearing.
				bits.ClearWords(chunk.Words()[ownWLo:ownWHi])
				if t > 1 {
					pool.Do(t, func(th int) { tstate[th].pull(inPull, front, ownVis, th, t, nloc) })
				} else {
					tstate[0].pull(inPull, front, ownVis, 0, 1, nloc)
				}
				// The commit sets distances, parents, visited flags, and
				// the new frontier's bits in the contribution bitmap.
				var newCount int64
				for th := range tstate {
					ts := &tstate[th]
					levScan += ts.adjWords
					lo, _ := chunkOf(th, t, nloc)
					for k, rl := range ts.pullOut.Ind {
						vl := lo + rl
						dist[vl] = level
						parent[vl] = ts.pullOut.Val[k]
						ownVis.Set(vl)
						mfLocal += lg.XAdj[vl+1] - lg.XAdj[vl]
						newCount++
						chunk.Set(start + vl)
					}
				}
				// Charge the pull: one random frontier-bitmap probe per
				// scanned entry, the adjacency and visited-flag streams,
				// plus the hybrid variant's serial apply and barriers.
				if price != nil {
					levels.ChargeHybrid(r, price, t,
						price.MemCost(levScan, bitmapWords, levScan+nloc, levScan), 2*newCount, 3)
				}

				// ---- Dense frontier exchange (bitmap allgather) ----
				// Replaces the sparse all-to-all: the new frontier moves
				// as one N-bit bitmap assembled from owned word chunks,
				// and termination needs no allreduce — every rank counts
				// the same combined bitmap.
				front.CopyFrom(world.AllgatherBitsBlocks(r,
					chunk.Words()[ownWLo:ownWHi], ownWLo, bitmapWords, "bitmap"))
				r.ChargeMem(price, 0, 0, 3*bitmapWords, 0)
				found, next = lp.EndCounted(r, dirm, level, levScan, front.Count(), mfLocal)
			} else {
				// ---- Top-down frontier expansion into per-owner buffers ----
				for j := range send {
					send[j] = send[j][:0]
				}
				var adjWords int64  // adjacency stream volume
				var localHits int64 // targets handled via the local shortcut
				curBuf = 1 - curBuf
				ns = ar.fsBuf[curBuf][:0] // next frontier (double buffer)
				if t > 1 {
					// Hybrid expansion (Algorithm 2 lines 10-16): each worker
					// scans a contiguous chunk of the frontier into its
					// thread-local stacks, reading but never writing the
					// distance array.
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
							for _, id := range lg.Neighbors(ul) {
								v := int64(id)
								ts.adjWords++
								o := pt.Owner(v)
								if opt.LocalShortcut && o == me {
									ts.localHits++
									vl := v - start
									// Read-only filter against the pre-level
									// state; the serial merge re-checks.
									if dist[vl] == serial.Unreached {
										ts.local = append(ts.local, vl, ug)
									}
									continue
								}
								ts.send[o] = append(ts.send[o], v, ug)
							}
						}
					})
					// Serial merge of the thread-local stacks (line 19).
					// Chunks are contiguous and drained in thread order, so
					// claims and the dedup filter see discoveries in exactly
					// the flat algorithm's frontier order: outputs are
					// bit-identical to Threads=1.
					for th := range tstate {
						ts := &tstate[th]
						adjWords += ts.adjWords
						localHits += ts.localHits
						for k := 0; k+1 < len(ts.local); k += 2 {
							vl, ug := ts.local[k], ts.local[k+1]
							if dist[vl] == serial.Unreached {
								dist[vl] = level
								parent[vl] = ug
								ns = append(ns, vl)
							}
						}
						for o := range ts.send {
							for k := 0; k+1 < len(ts.send[o]); k += 2 {
								v := ts.send[o][k]
								if dedup != nil && !dedup.TestAndSet(v) {
									continue
								}
								send[o] = append(send[o], v, ts.send[o][k+1])
							}
						}
					}
				} else {
					for _, ul := range fs {
						ug := start + ul
						for _, id := range lg.Neighbors(ul) {
							v := int64(id)
							adjWords++
							o := pt.Owner(v)
							if opt.LocalShortcut && o == me {
								vl := v - start
								localHits++
								if dist[vl] == serial.Unreached {
									dist[vl] = level
									parent[vl] = ug
									ns = append(ns, vl)
								}
								continue
							}
							if dedup != nil && !dedup.TestAndSet(v) {
								continue
							}
							send[o] = append(send[o], v, ug)
						}
					}
				}
				var sendWords int64
				for j := range send {
					sendWords += int64(len(send[j]))
				}
				if dedup != nil {
					// Clear only the bits this level set: one sweep over the
					// deduped send volume, no reallocation.
					for j := range send {
						for k := 0; k < len(send[j]); k += 2 {
							dedup.Clear(send[j][k])
						}
					}
				}
				// Charge the expansion: one XAdj probe per frontier vertex,
				// adjacency + buffer writes streamed, one owner computation
				// per edge, one distance probe per shortcut target. The
				// hybrid variant additionally merges thread-local buffers
				// (one more streaming pass over the send volume, itself
				// thread-parallel per Algorithm 2 line 19) and pays the three
				// per-level thread barriers serially.
				if price != nil {
					par := price.MemCost(int64(len(fs))+localHits, nloc, adjWords+sendWords, adjWords)
					if t > 1 {
						par += price.MemCost(0, 0, sendWords, 0)
					}
					levels.ChargeHybrid(r, price, t, par, 0, 3)
				}

				// ---- All-to-all exchange (Algorithm 2 line 21) ----
				// Commit the received discoveries; unpacking is
				// data-parallel across threads (Section 3.1).
				var recvWords int64
				for _, part := range world.Alltoallv(r, send, "a2a") {
					recvWords += int64(len(part))
					for k := 0; k+1 < len(part); k += 2 {
						v, pu := part[k], part[k+1]
						vl := v - start
						if dist[vl] == serial.Unreached {
							dist[vl] = level
							parent[vl] = pu
							ns = append(ns, vl)
						}
					}
				}
				if price != nil {
					r.Charge(price.MemCost(recvWords/2, nloc, recvWords, 0) / float64(t))
				}
				ar.fsBuf[curBuf] = ns
				levScan = adjWords
				// The heuristic needs the new frontier's out-edge volume.
				if mode == dirheur.ModeAuto {
					for _, vl := range ns {
						mfLocal += lg.XAdj[vl+1] - lg.XAdj[vl]
					}
					r.ChargeMem(price, int64(len(ns)), nloc, 0, 0)
				}

				// ---- Level termination test and direction decision ----
				found, next = lp.End(r, dirm, level, levScan, int64(len(ns)), mfLocal)
			}
			if found == 0 {
				break
			}
			if next != cur {
				if next == dirheur.BottomUp {
					enterBottomUp(ns)
				} else {
					// Re-sparsify: collect this level's discoveries into
					// the frontier list; purely local.
					curBuf = 1 - curBuf
					fs = ar.fsBuf[curBuf][:0]
					for i := int64(0); i < nloc; i++ {
						if dist[i] == level {
							fs = append(fs, i)
						}
					}
					ar.fsBuf[curBuf] = fs
					r.ChargeMem(price, 0, 0, nloc, 0)
				}
				cur = next
			} else if cur == dirheur.TopDown {
				fs = ns
			}
			level++
		}

		var traversed int64
		for i := int64(0); i < nloc; i++ {
			if dist[i] != serial.Unreached {
				traversed += lg.XAdj[i+1] - lg.XAdj[i]
			}
		}
		// level counts the final iteration that discovered nothing;
		// report the number of discovering levels (the source's
		// eccentricity for connected graphs).
		levelsPer[me] = level - 1
		edgesPer[me] = traversed
	})

	out.Levels = levelsPer[0]
	for _, e := range edgesPer {
		out.TraversedEdges += e
	}
	lp.Fill(&out.Profile)
	return out
}
