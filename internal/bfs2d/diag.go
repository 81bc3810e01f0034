package bfs2d

import (
	"math"

	"repro/internal/cluster"
	"repro/internal/dirheur"
	"repro/internal/levels"
	"repro/internal/scratch"
	"repro/internal/serial"
	"repro/internal/smp"
	"repro/internal/spmat"
	"repro/internal/spvec"
)

// runDiagVector is Algorithm 3 with the 1D ("diagonal") vector
// distribution the paper measures in Figure 4: vector block i lives
// entirely on the diagonal process P(i,i). The expand becomes a broadcast
// from the diagonal down the process column, and the fold becomes a
// gather to the diagonal along the process row — after which the diagonal
// alone merges the pc partial vectors while the rest of its row idles.
// That serial merge is the load imbalance the figure visualizes.
func runDiagVector(w *cluster.World, grid *cluster.Grid, g *Graph, source int64, opt Options) *levels.Output {
	pt := g.Part
	t := opt.Threads
	if t < 1 {
		t = 1
	}
	p := w.P
	distLoc := make([][]int64, p)
	parentLoc := make([][]int64, p)
	levelsPer := make([]int64, p)
	lp := levels.New(w, false, nil) // the Figure 4 layout traces nothing

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
		onDiag := i == j
		ar := &arena.ranks[me]

		rowLo := pt.RowStart(i)
		rowHi := pt.RowStart(i + 1)
		colLo := pt.ColStart(j)

		// Diagonal ranks own the whole vector block; others own nothing.
		var dist, parent []int64
		if onDiag {
			nOwn := rowHi - rowLo
			dist = scratch.Grown(ar.dist, nOwn)
			parent = scratch.Grown(ar.parent, nOwn)
			ar.dist, ar.parent = dist, parent
			for k := range dist {
				dist[k] = serial.Unreached
				parent[k] = serial.Unreached
			}
			r.ChargeMem(price, 0, 0, 2*nOwn, 0)
		}

		// Frontier double buffer (diagonal ranks only), with the same
		// safety argument as the 2D-vector path: a level's readers finish
		// with a buffer before that level's allreduce.
		frontier := ar.frontBuf[0][:0] // global ids; non-empty only on the diagonal
		if onDiag && pt.RowBlockOf(source) == i {
			dist[source-rowLo] = 0
			parent[source-rowLo] = source
			frontier = append(frontier, source)
			ar.frontBuf[0] = frontier
		}
		curBuf := 0

		var pool *smp.Pool
		if t > 1 {
			pool = ar.team(t)
		}
		spMSVOpts := spmat.SpMSVOpts{Kernel: opt.Kernel}
		localF, spOut, merged := &ar.localF, &ar.spOut, &ar.merged
		pairs := ar.pairs
		var level int64 = 1
		for {
			// ---- Expand: broadcast from the diagonal down the column ----
			var payload []int64
			if onDiag {
				payload = frontier
			}
			gathered := colG.Bcast(r, j, payload, "expand")
			localF.Reset()
			for _, gv := range gathered {
				localF.Append(gv-colLo, gv)
			}
			r.ChargeMem(price, 0, 0, 2*int64(len(gathered)), int64(len(gathered)))

			// ---- Local SpMSV ----
			work := block.Work(localF)
			block.SpMSV(spOut, localF, spMSVOpts, pool, &ar.rowScratch)
			if price != nil {
				stripWS := (rowHi - rowLo) / int64(t)
				r.Charge(price.MemCost(work, stripWS, work+int64(spOut.NNZ()), work) / float64(t))
			}

			// ---- Fold: gather the row's partials at the diagonal ----
			// The pair buffer is reused each level: the diagonal finishes
			// reading it before the level's allreduce.
			pairs = pairs[:0]
			for k, vl := range spOut.Ind {
				pairs = append(pairs, vl+rowLo, spOut.Val[k])
			}
			ar.pairs = pairs
			parts := rowG.Gatherv(r, i, pairs, "fold")

			// The old frontier slice has been handed to the column; the
			// replacement goes into the other buffer of the double pair.
			curBuf = 1 - curBuf
			frontier = ar.frontBuf[curBuf][:0]
			if onDiag {
				var recvWords int64
				for _, part := range parts {
					recvWords += int64(len(part))
				}
				spvec.FoldMerge(merged, parts, rowLo, &ar.mergeScratch)
				// The diagonal's serial merge of pc partial vectors: this
				// is the extra local phase that makes the rest of the row
				// sit idle (Figure 4's 3-4x MPI-time skew).
				if price != nil {
					logPc := int64(math.Ceil(math.Log2(float64(grid.Pc + 1))))
					r.Charge(price.MemCost(recvWords/2, rowHi-rowLo, 2*recvWords, recvWords*logPc))
				}
				for k, vl := range merged.Ind {
					if parent[vl] == serial.Unreached {
						parent[vl] = merged.Val[k]
						dist[vl] = level
						frontier = append(frontier, vl+rowLo)
					}
				}
				ar.frontBuf[curBuf] = frontier
			}

			// ---- Termination: global Allreduce (as in Figure 4's loop) ----
			total := world.AllreduceSum(r, int64(len(frontier)), "allreduce")
			lp.Level(r, dirheur.TopDown, work, total)
			if total == 0 {
				break
			}
			level++
		}

		distLoc[me] = dist
		parentLoc[me] = parent
		// Report discovering levels only (the last iteration found none).
		levelsPer[me] = level - 1
	})

	// Assemble from the diagonal ranks, which own whole blocks.
	out := &levels.Output{Source: source, Levels: levelsPer[0]}
	out.Dist = make([]int64, pt.N)
	out.Parent = make([]int64, pt.N)
	for b := 0; b < grid.Pr; b++ {
		id := b*grid.Pc + b
		copy(out.Dist[pt.RowStart(b):], distLoc[id])
		copy(out.Parent[pt.RowStart(b):], parentLoc[id])
	}
	lp.Fill(&out.Profile)
	out.TraversedEdges = traversedEdges(g, out.Dist)
	return out
}
