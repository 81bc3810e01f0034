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

// Code is what sets one comparator apart from the other: both run the
// same level loop (Run) and differ only in message width and prices.
type Code struct {
	words int // wire words per (target, parent) record; zero framing past the pair
	// expand prices a level's expansion from the frontier size, the rank's
	// local vertex count, the adjacency entries scanned and the records sent.
	expand func(price cluster.Pricer, frontier, nloc, adj, records int64) float64
	// integrate prices its integration from the vertices discovered, the
	// local vertex count and the records received.
	integrate func(price cluster.Pricer, found, nloc, records int64) float64
}

type record struct{ v, pu int64 } // one received (target, parent) pair

// Run executes code's level-synchronous BFS from source over the 1D
// distribution g on the world w, whose size must equal the partition's
// rank count. Each level routes every scanned edge, local or not,
// through the all-to-all as a record, sorts each rank's received
// records by target, and commits the first record of every undiscovered
// target. The output is a correct BFS; code sets only the cost profile.
// Every rank writes its answers straight into its owned range of the
// output arrays.
func Run(w *cluster.World, g *bfs1d.Graph, source int64, price cluster.Pricer, code Code) *levels.Output {
	pt := g.Part
	if w.P != pt.P {
		panic("baseline: world size != partition size")
	}
	world := w.WorldGroup()
	out := &levels.Output{Source: source, Dist: make([]int64, pt.N), Parent: make([]int64, pt.N)}
	framing := make([]int64, code.words-2)
	edgesPer, scannedPer := make([]int64, pt.P), make([]int64, pt.P)

	w.Run(func(r *cluster.Rank) {
		me := r.ID()
		lg := g.Locals[me]
		nloc := pt.Count(me)
		start := pt.Start(me)

		dist := out.Dist[start : start+nloc]
		parent := out.Parent[start : start+nloc]
		for i := range dist {
			dist[i] = serial.Unreached
			parent[i] = serial.Unreached
		}
		r.ChargeMem(price, 0, 0, 2*nloc, 0)

		var fs []int64 // local indices of the current frontier
		if pt.Owner(source) == me {
			dist[source-start] = 0
			parent[source-start] = source
			fs = append(fs, source-start)
		}

		send := make([][]int64, pt.P)
		var recs []record
		var scanned int64
		level := int64(1)
		for {
			for j := range send {
				send[j] = send[j][:0]
			}
			var adj int64
			for _, ul := range fs {
				for _, id := range lg.Neighbors(ul) {
					v := int64(id)
					o := pt.Owner(v)
					send[o] = append(append(send[o], v, start+ul), framing...)
					adj++
				}
			}
			scanned += adj
			if price != nil { // every entry scanned is sent as a record
				r.Charge(code.expand(price, int64(len(fs)), nloc, adj, adj))
			}

			recv := world.Alltoallv(r, send, "a2a")
			recs = recs[:0]
			for _, part := range recv {
				for k := 0; k < len(part); k += code.words {
					recs = append(recs, record{part[k], part[k+1]})
				}
			}
			sort.Slice(recs, func(a, b int) bool { return recs[a].v < recs[b].v })
			var ns []int64
			for _, rec := range recs {
				if vl := rec.v - start; dist[vl] == serial.Unreached {
					dist[vl] = level
					parent[vl] = rec.pu
					ns = append(ns, vl)
				}
			}
			if price != nil {
				r.Charge(code.integrate(price, int64(len(ns)), nloc, int64(len(recs))))
			}

			if world.AllreduceSum(r, int64(len(ns)), "allreduce") == 0 {
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
		// level counts the final iteration, which discovered nothing.
		if me == 0 {
			out.Levels = level - 1
		}
		edgesPer[me], scannedPer[me] = traversed, scanned
	})
	for i := range edgesPer {
		out.TraversedEdges += edgesPer[i]
		out.ScannedTopDown += scannedPer[i]
	}
	return out
}
