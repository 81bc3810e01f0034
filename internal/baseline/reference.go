// Package baseline implements the two comparator BFS codes of Section 6:
// a Graph 500 reference-style 1D implementation and a PBGL-style
// ghost-cell implementation. Both compute correct BFS results over the
// same cluster substrate as the tuned algorithms — the differences are
// the work-efficiency and messaging-granularity characteristics that the
// paper's measured gaps (2.7-4.1x vs the reference code, 10-16x vs PBGL)
// stem from.
package baseline

import (
	"sort"

	"repro/internal/bfs1d"
	"repro/internal/cluster"
	"repro/internal/levels"
	"repro/internal/serial"
)

// referenceSortOpsFactor approximates the constant of the reference
// code's sort-based duplicate elimination (comparison + swap costs per
// element per log-level).
const referenceSortOpsFactor = 8

// RunReference executes a Graph 500 reference-style 1D BFS: the same
// level-synchronous structure as the tuned code, but with the
// work-inefficiencies the paper calls out in Yoo et al.-style codes and
// the reference implementation (Section 2.2, Section 6):
//
//   - no local shortcut: every discovered edge target, local or not, is
//     routed through the all-to-all;
//   - aggregation-based visited checks: received candidates are sorted
//     and deduplicated before the distance test, costing O(R log R) extra
//     work per level instead of O(R);
//   - naive buffer management: an extra counting pass and a repacking
//     pass over the send volume each level.
//
// The result is bit-identical BFS output at a 2.5-4x higher simulated
// cost, reproducing the comparison in Section 6.
func RunReference(w *cluster.World, g *bfs1d.Graph, source int64, price cluster.Pricer) *levels.Output {
	pt := g.Part
	if w.P != pt.P {
		panic("baseline: world size != partition size")
	}
	p := pt.P
	world := w.WorldGroup()

	distLoc := make([][]int64, p)
	parentLoc := make([][]int64, p)
	levelsPer := make([]int64, p)
	edgesPer := make([]int64, p)

	w.Run(func(r *cluster.Rank) {
		me := r.ID()
		lg := g.Locals[me]
		nloc := pt.Count(me)
		start := pt.Start(me)

		dist := make([]int64, nloc)
		parent := make([]int64, nloc)
		for i := range dist {
			dist[i] = serial.Unreached
			parent[i] = serial.Unreached
		}
		r.ChargeMem(price, 0, 0, 2*nloc, 0)

		fs := make([]int64, 0, 1024)
		if pt.Owner(source) == me {
			dist[source-start] = 0
			parent[source-start] = source
			fs = append(fs, source-start)
		}

		send := make([][]int64, p)
		var level int64 = 1
		for {
			for j := range send {
				send[j] = send[j][:0]
			}
			var adjWords int64
			for _, ul := range fs {
				ug := start + ul
				for _, id := range lg.Neighbors(ul) {
					v := int64(id)
					adjWords++
					o := pt.Owner(v)
					send[o] = append(send[o], v, ug)
				}
			}
			var sendWords int64
			for j := range send {
				sendWords += int64(len(send[j]))
			}
			// Expansion plus the reference code's two extra passes over
			// the send volume (count, then repack).
			if price != nil {
				r.Charge(price.MemCost(int64(len(fs)), nloc, adjWords+3*sendWords, adjWords))
			}

			recv := world.Alltoallv(r, send, "a2a")

			// Aggregation-based integration: concatenate, sort by target,
			// dedup, then probe the distance array once per survivor.
			var cand []int64 // (target, parent) pairs
			for _, part := range recv {
				cand = append(cand, part...)
			}
			pairs := len(cand) / 2
			type tp struct{ v, pu int64 }
			tps := make([]tp, 0, pairs)
			for k := 0; k+1 < len(cand); k += 2 {
				tps = append(tps, tp{cand[k], cand[k+1]})
			}
			sort.Slice(tps, func(a, b int) bool { return tps[a].v < tps[b].v })
			ns := fs[:0:0]
			for k := range tps {
				if k > 0 && tps[k].v == tps[k-1].v {
					continue
				}
				vl := tps[k].v - start
				if dist[vl] == serial.Unreached {
					dist[vl] = level
					parent[vl] = tps[k].pu
					ns = append(ns, vl)
				}
			}
			if price != nil {
				logR := int64(1)
				for 1<<uint(logR) < pairs+2 {
					logR++
				}
				r.Charge(price.MemCost(int64(len(ns)), nloc, 2*int64(pairs),
					int64(pairs)*logR*referenceSortOpsFactor))
			}

			total := world.AllreduceSum(r, int64(len(ns)), "allreduce")
			if total == 0 {
				break
			}
			fs = ns
			level++
		}

		var traversed int64
		for i := int64(0); i < nloc; i++ {
			if dist[i] != serial.Unreached {
				traversed += lg.XAdj[i+1] - lg.XAdj[i]
			}
		}
		distLoc[me] = dist
		parentLoc[me] = parent
		levelsPer[me] = level - 1
		edgesPer[me] = traversed
	})

	out := &levels.Output{Source: source, Levels: levelsPer[0]}
	out.Dist = make([]int64, 0, pt.N)
	out.Parent = make([]int64, 0, pt.N)
	for i := 0; i < p; i++ {
		out.Dist = append(out.Dist, distLoc[i]...)
		out.Parent = append(out.Parent, parentLoc[i]...)
		out.TraversedEdges += edgesPer[i]
	}
	return out
}
