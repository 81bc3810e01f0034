package baseline

import (
	"sort"

	"repro/internal/bfs1d"
	"repro/internal/cluster"
	"repro/internal/levels"
	"repro/internal/serial"
)

// PBGL-style cost constants. The Parallel Boost Graph Library lifts
// sequential algorithms to distributed execution through generic property
// maps and per-edge messages; the genericity costs serialization work per
// message element and inflates message sizes (a PBGL BFS message carries
// the full (target, source, distance-tag) record plus framing rather than
// a packed word pair). Table 2's measured 10-16x gap against the tuned 2D
// code is dominated by these constants.
const (
	pbglWordsPerEdgeMsg = 6   // serialized message size per edge, in words
	pbglSerializeOps    = 160 // property-map + serialization ops per element
	pbglQueueOpsFactor  = 24  // distributed-queue bookkeeping per element
)

// RunPBGL executes a PBGL-style level-synchronous BFS: the same 1D
// vertex distribution, but with per-edge messaging semantics, serialized
// fat messages, and distributed-queue bookkeeping instead of bulk packed
// buffers. Output is a correct BFS; only the cost profile differs.
func RunPBGL(w *cluster.World, g *bfs1d.Graph, source int64, price cluster.Pricer) *levels.Output {
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

		var level int64 = 1
		for {
			// Per-edge message construction: each edge target becomes a
			// serialized record of pbglWordsPerEdgeMsg words (the payload
			// pair plus property-map framing). The framing really travels
			// through the substrate, so the collective is charged for the
			// full serialized volume a PBGL run would put on the wire.
			send := make([][]int64, p)
			var adjWords int64
			for _, ul := range fs {
				ug := start + ul
				for _, v := range lg.Neighbors(ul) {
					adjWords++
					o := pt.Owner(v)
					send[o] = append(send[o], v, ug, 0, 0, 0, 0)
				}
			}
			var sendPairs int64
			for j := range send {
				sendPairs += int64(len(send[j])) / pbglWordsPerEdgeMsg
			}
			if price != nil {
				r.Charge(price.MemCost(int64(len(fs)), nloc,
					adjWords+sendPairs*pbglWordsPerEdgeMsg,
					adjWords+sendPairs*pbglSerializeOps))
			}
			recv := world.Alltoallv(r, send, "a2a")

			var recvPairs int64
			type tp struct{ v, pu int64 }
			var tps []tp
			for _, part := range recv {
				for k := 0; k+1 < len(part); k += pbglWordsPerEdgeMsg {
					tps = append(tps, tp{part[k], part[k+1]})
					recvPairs++
				}
			}
			sort.Slice(tps, func(a, b int) bool { return tps[a].v < tps[b].v })
			ns := fs[:0:0]
			for k := range tps {
				vl := tps[k].v - start
				if dist[vl] == serial.Unreached {
					dist[vl] = level
					parent[vl] = tps[k].pu
					ns = append(ns, vl)
				}
			}
			if price != nil {
				r.Charge(price.MemCost(recvPairs, nloc, 2*recvPairs,
					recvPairs*(pbglSerializeOps+pbglQueueOpsFactor)))
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
