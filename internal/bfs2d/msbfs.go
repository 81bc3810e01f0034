package bfs2d

import (
	"cmp"
	"fmt"
	mbits "math/bits"
	"slices"

	"repro/internal/bits"
	"repro/internal/cluster"
	"repro/internal/dirheur"
	"repro/internal/scratch"
	"repro/internal/serial"
	"repro/internal/smp"
	"repro/internal/spmat"
	"repro/internal/spvec"
)

// BatchWidth is the maximum number of sources one batched run traverses
// simultaneously: one bit per search in a uint64 mask.
const BatchWidth = 64

// BatchOutput is the result of a batched (multi-source) 2D BFS; see the
// 1D driver's BatchOutput for the field semantics — distances are
// bit-identical to sequential Runs, parents independently valid.
type BatchOutput struct {
	Sources []int64
	Dist    [][]int64
	Parent  [][]int64
	Levels  []int64
	// TraversedEdges is the per-search TEPS denominator;
	// UniqueTraversedEdges counts each shared edge scan once across the
	// batch (the machine-throughput denominator).
	TraversedEdges       []int64
	UniqueTraversedEdges int64
	BatchLevels          int64
	ScannedTopDown       int64
	ScannedBottomUp      int64
	LevelFrontier        []int64
	LevelScanned         []int64
	LevelBottomUp        []bool
	LevelCommWords       []int64
}

// batchRankArena is one rank's reusable multi-source scratch for the 2D
// driver: the frontier double buffer (MaskVecs of owned global ids),
// the new-discovery mask plane over the owned range, the three N-word
// mask planes of the partitioned bottom-up exchange (word index =
// vertex index, so deposits are exact and the OR merge never sees
// overlap), and the pair/triple buffers of the transpose, expand, and
// fold. Distances and parents are not arena state: the fold's
// first-visit commits write the per-search output planes directly
// (write-only during traversal — the visited plane carries all state),
// so the batch never stages a vertex-major copy it would have to
// transpose.
type batchRankArena struct {
	frontBuf [2]spvec.MaskVec
	ns       []int64  // newly discovered owned local indices
	newOwn   []uint64 // per-level discovery masks over owned range
	vis      []uint64 // N words; owned slice always maintained,
	// row-block slice maintained while bottom-up
	front, rowFront, chunk []uint64   // N-word planes of the bitmap exchange
	send                   [][]int64  // fold: per-piece (vertex, mask, parent)
	sendT                  [][]int64  // rectangular transpose pair routing
	pairs                  []int64    // transpose flat (vertex, mask) pair buffer
	moved                  [][2]int64 // rectangular transpose: collected pairs to sort
	localF, spOut, merged  spvec.MaskVec
	maskRowScratch         spmat.MaskRowScratch
	maskPullScratch        spmat.MaskPullScratch
}

// RunBatch executes one batched BFS over up to BatchWidth sources on the
// grid: search k owns bit k of every mask, each level runs one transpose,
// one expand, one SpMSV, and one fold for the whole batch (or one
// partitioned mask-plane exchange and one pull bottom-up), so every
// collective is amortized across the batch. Frontier entries carry
// (vertex, mask) pairs — the vertex is its own parent payload — and fold
// entries carry (vertex, mask, parent) triples resolved first-wins at
// the owner. Searches retire from the active mask as their frontiers
// empty. Only the Dist2D vector layout supports batching (the diagonal
// layout exists for the Figure 4 imbalance experiment).
func RunBatch(w *cluster.World, grid *cluster.Grid, g *Graph, sources []int64, opt Options) (*BatchOutput, error) {
	pt := g.Part
	if grid.Pr != pt.Pr || grid.Pc != pt.Pc {
		return nil, fmt.Errorf("bfs2d: %dx%d grid does not match %dx%d distribution",
			grid.Pr, grid.Pc, pt.Pr, pt.Pc)
	}
	if w.P != grid.Pr*grid.Pc {
		return nil, fmt.Errorf("bfs2d: world of %d ranks does not match %dx%d grid",
			w.P, grid.Pr, grid.Pc)
	}
	if opt.Vector != Dist2D {
		return nil, fmt.Errorf("bfs2d: batched traversal requires the 2D vector distribution")
	}
	width := len(sources)
	if width < 1 || width > BatchWidth {
		return nil, fmt.Errorf("bfs2d: batch width %d out of range [1,%d]", width, BatchWidth)
	}
	for _, s := range sources {
		if s < 0 || s >= pt.N {
			return nil, fmt.Errorf("bfs2d: source %d out of range [0,%d)", s, pt.N)
		}
	}
	return run2DVectorBatch(w, grid, g, sources, opt), nil
}

func run2DVectorBatch(w *cluster.World, grid *cluster.Grid, g *Graph, sources []int64, opt Options) *BatchOutput {
	pt := g.Part
	t := opt.Threads
	if t < 1 {
		t = 1
	}
	p := w.P
	width := len(sources)
	wd := int64(width)
	fullMask := ^uint64(0)
	if width < 64 {
		fullMask = 1<<uint(width) - 1
	}

	// Per-search output planes, committed into directly by the fold's
	// first-visit claims (each rank owns a disjoint vector range, so the
	// writes are race-free). One backing array per kind; three-index
	// slicing keeps appends from bleeding across planes. The stride pads
	// each plane by a cache line: a commit touches up to `width` planes
	// at the same vertex offset, and an exact power-of-two stride would
	// put every one of those writes in the same cache set. Rank tails
	// overwrite the never-visited slots with Unreached.
	planeStride := pt.N + 8
	distPlanes := make([][]int64, width)
	parentPlanes := make([][]int64, width)
	distBack := make([]int64, int64(width)*planeStride)
	parBack := make([]int64, int64(width)*planeStride)
	for s := 0; s < width; s++ {
		lo := int64(s) * planeStride
		hi := lo + pt.N
		distPlanes[s] = distBack[lo:hi:hi]
		parentPlanes[s] = parBack[lo:hi:hi]
	}
	// lastLevel[s] is the deepest level at which search s discovered a
	// vertex, recorded by rank 0 from the retirement allreduce.
	lastLevel := make([]int64, width)

	visLoc := make([][]uint64, p)
	levelsPer := make([]int64, p)
	scannedTD := make([]int64, p)
	scannedBU := make([]int64, p)
	var trace []int64
	var levelDir []bool
	var levelScan, levelComm [][]int64
	if opt.Trace {
		levelScan = make([][]int64, p)
		levelComm = make([][]int64, p)
	}

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
		world := w.WorldGroup()
		ar := &arena.ranks[me]
		ba := &ar.batch

		vLo, vHi := pt.OwnedRange(i, j)
		nOwn := vHi - vLo
		newOwn := bits.GrownWords(ba.newOwn, nOwn)
		vis := bits.GrownWords(ba.vis, pt.N)
		ba.newOwn, ba.vis = newOwn, vis
		// Initialization streams the output planes (zeroed at allocation,
		// never-visited slots finalized by the rank tail) and mask planes
		// once.
		r.ChargeMem(price, 0, 0, 2*nOwn*wd+nOwn+pt.N, 0)

		colLo := pt.ColStart(j)
		colHi := pt.ColStart(j + 1)
		rowLo := pt.RowStart(i)
		rowHi := pt.RowStart(i + 1)

		// Seed: the owner of each source claims bit s; duplicate sources
		// stack bits on one frontier entry. Frontier entries stay sorted
		// by global id (sources seed via the same ns-sort path as level
		// commits, keeping the expand's merge-join invariant).
		frontier := &ba.frontBuf[0]
		frontier.Reset()
		ns := ba.ns[:0]
		for s, src := range sources {
			if si, sj := pt.VecOwner(src); si != i || sj != j {
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

		var pool *smp.Pool
		if t > 1 {
			pool = ar.team(t)
		}
		localF, spOut, merged := &ba.localF, &ba.spOut, &ba.merged
		if len(ba.send) != grid.Pc {
			ba.send = make([][]int64, grid.Pc)
		}
		send := ba.send
		square := grid.Square()
		if !square && len(ba.sendT) != p {
			ba.sendT = make([][]int64, p)
		}
		sendT := ba.sendT

		mode := opt.Direction
		dirm := dirheur.NewBatch(mode, opt.Policy, pt.N, totalAdj, width)
		// Word ranges of the partitioned mask-plane exchange: one word
		// per vertex, so the owned, row-block, and block-column ranges
		// are exact (no boundary padding, unlike the one-bit bitmap).
		rowWords, colWords := rowHi-rowLo, colHi-colLo
		var front, rowFront, chunk []uint64
		exchangeFrontier := func() {
			rowSlice := rowG.AllgatherBitsBlocks(r,
				chunk[vLo:vHi], vLo-rowLo, rowWords, "bitmap")
			copy(rowFront[rowLo:rowHi], rowSlice)
			iLo, iHi := rowLo, rowHi
			if colLo > iLo {
				iLo = colLo
			}
			if colHi < iHi {
				iHi = colHi
			}
			var dep []uint64
			var off int64
			if iLo < iHi { // this row block intersects my block column
				dep, off = rowFront[iLo:iHi], iLo-colLo
			}
			colSlice := colG.AllgatherBitsBlocks(r, dep, off, colWords, "bitmap")
			copy(front[colLo:colHi], colSlice)
			r.ChargeMem(price, 0, 0, 2*(rowWords+colWords), 0)
		}
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
			visSlice := rowG.AllgatherBitsBlocks(r,
				chunk[vLo:vHi], vLo-rowLo, rowWords, "bitmap")
			copy(vis[rowLo:rowHi], visSlice)
			depositFrontier()
			exchangeFrontier()
			r.ChargeMem(price, 0, 0, nOwn+2*rowWords, 0)
		}
		cur := dirm.Direction()
		active := fullMask
		if cur == dirheur.BottomUp {
			enterBottomUp()
		}

		var level int64 = 1
		var prevSent int64
		for {
			var totalNew, mfLocal, levScan int64
			var newOrLocal uint64
			var newCountLocal int64

			if cur == dirheur.BottomUp {
				// ---- Batched bottom-up pull ----
				scanned := pulls[i][j].PullMasks(spOut, front, vis, active,
					rowLo, colLo, pool, &ba.maskPullScratch)
				scannedBU[me] += scanned
				levScan = scanned
				// One random probe into the block-column frontier plane
				// per scanned entry (colWords working set, now one word
				// per vertex), one visited-mask probe per block row.
				if price != nil {
					par := price.MemCost(scanned+(rowHi-rowLo), colWords, scanned, scanned)
					serialOverhead := 0.0
					if t > 1 {
						serialOverhead = price.MemCost(0, 0, int64(spOut.NNZ()), threadBarrierOps)
					}
					r.Charge(par/float64(t) + serialOverhead)
				}
			} else {
				// ---- Transpose: (vertex, mask) pairs ----
				var transposed []int64
				pairs := ba.pairs[:0]
				for k, gv := range frontier.Ind {
					pairs = append(pairs, gv, int64(frontier.Mask[k]))
				}
				ba.pairs = pairs
				if square {
					transposed = grid.All.SendRecvAll(r, grid.TransposePeer, pairs, "transpose")
				} else {
					for k := range sendT {
						sendT[k] = sendT[k][:0]
					}
					for k := 0; k+1 < len(pairs); k += 2 {
						ti, tj := pt.TransposeOwner(pairs[k])
						sendT[ti*grid.Pc+tj] = append(sendT[ti*grid.Pc+tj], pairs[k], pairs[k+1])
					}
					parts := grid.All.Alltoallv(r, sendT, "transpose")
					// Collect and re-sort by vertex id: the expand's
					// merge-join needs ascending frontiers. Sub-piece
					// vertices are unique across senders, so sorting the
					// collected pairs is a permutation, not a merge.
					moved := ba.moved[:0]
					for _, part := range parts {
						for k := 0; k+1 < len(part); k += 2 {
							moved = append(moved, [2]int64{part[k], part[k+1]})
						}
					}
					slices.SortFunc(moved, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
					ba.moved = moved
					pairs = pairs[:0]
					for _, vm := range moved {
						pairs = append(pairs, vm[0], vm[1])
					}
					ba.pairs = pairs
					transposed = pairs
					mv := int64(len(pairs))
					r.ChargeMem(price, 0, 0, int64(2*frontier.NNZ())+2*mv,
						int64(2*frontier.NNZ())+mv*int64(mbits.Len64(uint64(mv))))
				}

				// ---- Expand: pair lists along the process column ----
				parts := colG.Allgatherv(r, transposed, "expand")
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
				work := block.WorkMasks(localF)
				block.SpMSVMasks(spOut, localF, pool, &ba.maskRowScratch)
				scannedTD[me] += work
				levScan = work
				if price != nil {
					stripWS := (rowHi - rowLo) / int64(t)
					par := price.MemCost(work, stripWS, work+int64(spOut.NNZ()), work)
					serialOverhead := 0.0
					if t > 1 {
						serialOverhead = price.MemCost(0, 0, int64(spOut.NNZ()), threadBarrierOps)
					}
					r.Charge(par/float64(t) + serialOverhead)
				}
			}

			// ---- Fold: (vertex, mask, parent) triples along the row ----
			// Both directions produce candidates over block rows in spOut.
			// The batched product is unsorted by row (and may emit several
			// disjoint-mask entries per row), so entries route to their
			// owner piece by VecOwner instead of the scalar path's sorted
			// cursor walk; the owner's first-wins mask fold needs no order.
			for k := range send {
				send[k] = send[k][:0]
			}
			for k, rl := range spOut.Ind {
				gv := rl + rowLo
				_, pj := pt.VecOwner(gv)
				send[pj] = append(send[pj], gv, int64(spOut.Mask[k]), spOut.Par[k])
			}
			recv := rowG.Alltoallv(r, send, "fold")
			var sendWords, recvWords int64
			for k := range send {
				sendWords += int64(len(send[k]))
			}
			for _, part := range recv {
				recvWords += int64(len(part))
			}
			spvec.FoldMasks(merged, recv, vLo, vis[vLo:vHi])
			if price != nil {
				r.Charge(price.MemCost(int64(spOut.NNZ()), nOwn, sendWords+2*recvWords, recvWords) / float64(t))
			}

			// ---- Commit and build the next frontier ----
			curBuf = 1 - curBuf
			nextF := &ba.frontBuf[curBuf]
			ns := ba.ns[:0]
			for k, vl := range merged.Ind {
				m := merged.Mask[k]
				if newOwn[vl] == 0 {
					ns = append(ns, vl)
				}
				newOwn[vl] |= m
				gv := vLo + vl
				for rem := m; rem != 0; rem &= rem - 1 {
					s := mbits.TrailingZeros64(rem)
					distPlanes[s][gv] = level
					parentPlanes[s][gv] = merged.Par[k]
				}
				pc := int64(mbits.OnesCount64(m))
				newCountLocal += pc
				newOrLocal |= m
				mfLocal += g.ColDegree[vLo+vl] * pc
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
			r.ChargeMem(price, int64(merged.NNZ()), nOwn, int64(merged.NNZ()),
				int64(len(ns))*int64(mbits.Len64(uint64(len(ns)))))

			// ---- Termination and retirement ----
			totalNew = world.AllreduceSum(r, newCountLocal, "allreduce")
			active = world.AllreduceOr(r, newOrLocal, "allreduce")
			if me == 0 {
				for rem := active; rem != 0; rem &= rem - 1 {
					lastLevel[mbits.TrailingZeros64(rem)] = level
				}
			}
			if opt.Trace {
				levelScan[me] = append(levelScan[me], levScan)
				sent, _ := r.Volumes()
				levelComm[me] = append(levelComm[me], sent-prevSent)
				prevSent = sent
				if me == 0 {
					levelDir = append(levelDir, cur == dirheur.BottomUp)
					if totalNew > 0 {
						trace = append(trace, totalNew)
					}
				}
			}
			if totalNew == 0 {
				break
			}

			// ---- Direction decision ----
			next := cur
			if mode == dirheur.ModeAuto {
				mf := world.AllreduceSum(r, mfLocal, "allreduce")
				next = dirm.Advance(totalNew, mf)
			}
			switch {
			case cur == dirheur.BottomUp && next == dirheur.BottomUp:
				// Stay bottom-up: the new frontier bits are exactly the
				// newly visited bits, so the row hop's slice extends the
				// row-block visited plane.
				depositFrontier()
				exchangeFrontier()
				bits.OrWords(vis[rowLo:rowHi], rowFront[rowLo:rowHi])
				r.ChargeMem(price, 0, 0, 2*rowWords, 0)
			case cur == dirheur.TopDown && next == dirheur.BottomUp:
				enterBottomUp()
			}
			cur = next
			level++
		}

		// Fill the never-visited (vertex, search) slots of this rank's
		// owned range with Unreached, plane-major so each plane's segment
		// is one ascending stream (vertex-major order would scatter every
		// vertex's misses across all `width` planes). The fold's commits
		// already wrote the discovered slots.
		for s := 0; s < width; s++ {
			bit := uint64(1) << uint(s)
			dp := distPlanes[s][vLo:vHi]
			pp := parentPlanes[s][vLo:vHi]
			for vl, m := range vis[vLo:vHi] {
				if m&bit == 0 {
					dp[vl] = serial.Unreached
					pp[vl] = serial.Unreached
				}
			}
		}

		visLoc[me] = append([]uint64(nil), vis[vLo:vHi]...)
		levelsPer[me] = level - 1
	})

	// Finalize the per-search outputs: edge counts from the visited
	// masks (whole-word fast path for fully-visited vertices) — one
	// linear sweep instead of the old O(width*N) vertex-major transpose.
	// Commits and rank tails already wrote every (vertex, search) slot.
	out := &BatchOutput{
		Sources:        append([]int64(nil), sources...),
		Dist:           distPlanes,
		Parent:         parentPlanes,
		Levels:         lastLevel,
		TraversedEdges: make([]int64, width),
		BatchLevels:    levelsPer[0],
		LevelFrontier:  trace,
		LevelBottomUp:  levelDir,
	}
	for id := 0; id < p; id++ {
		gi, gj := grid.RowOf(id), grid.ColOf(id)
		lo, hi := pt.OwnedRange(gi, gj)
		var degAll int64 // degree sum of this rank's fully-visited vertices
		for vl := int64(0); vl < hi-lo; vl++ {
			gv := lo + vl
			m := visLoc[id][vl]
			deg := g.ColDegree[gv]
			if m == fullMask {
				out.UniqueTraversedEdges += deg
				degAll += deg
				continue
			}
			if m != 0 {
				out.UniqueTraversedEdges += deg
				for rem := m; rem != 0; rem &= rem - 1 {
					out.TraversedEdges[mbits.TrailingZeros64(rem)] += deg
				}
			}
		}
		for s := 0; s < width; s++ {
			out.TraversedEdges[s] += degAll
		}
		out.ScannedTopDown += scannedTD[id]
		out.ScannedBottomUp += scannedBU[id]
	}
	if opt.Trace && len(levelScan) > 0 {
		out.LevelScanned = make([]int64, len(levelScan[0]))
		out.LevelCommWords = make([]int64, len(levelComm[0]))
		for id := range levelScan {
			for l, s := range levelScan[id] {
				out.LevelScanned[l] += s
			}
			for l, s := range levelComm[id] {
				out.LevelCommWords[l] += s
			}
		}
	}
	return out
}
