package baseline

import "repro/internal/cluster"

// referenceSortOpsFactor approximates the constant of the reference
// code's sort-based duplicate elimination (comparison + swap costs per
// element per log-level).
const referenceSortOpsFactor = 8

// Reference is a Graph 500 reference-style 1D BFS: the same
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
var Reference = Code{
	words: 2,
	expand: func(price cluster.Pricer, frontier, nloc, adj, records int64) float64 {
		// Expansion plus two extra passes over the send volume (count,
		// then repack), two words a record.
		return price.MemCost(frontier, nloc, adj+3*2*records, adj)
	},
	integrate: func(price cluster.Pricer, found, nloc, records int64) float64 {
		// Sort by target and dedup, then probe the distance array once
		// per survivor.
		logR := int64(1)
		for 1<<uint(logR) < records+2 {
			logR++
		}
		return price.MemCost(found, nloc, 2*records, records*logR*referenceSortOpsFactor)
	},
}

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

// PBGL is a PBGL-style level-synchronous BFS: the same 1D vertex
// distribution, but with per-edge messaging semantics, serialized fat
// messages, and distributed-queue bookkeeping instead of bulk packed
// buffers. Output is a correct BFS; only the cost profile differs.
var PBGL = Code{
	// Each edge target becomes a serialized record of the payload pair
	// plus property-map framing. The framing really travels through the
	// substrate, so the collective is charged for the full serialized
	// volume a PBGL run would put on the wire.
	words: pbglWordsPerEdgeMsg,
	expand: func(price cluster.Pricer, frontier, nloc, adj, records int64) float64 {
		return price.MemCost(frontier, nloc, adj+records*pbglWordsPerEdgeMsg, adj+records*pbglSerializeOps)
	},
	integrate: func(price cluster.Pricer, found, nloc, records int64) float64 {
		return price.MemCost(records, nloc, 2*records, records*(pbglSerializeOps+pbglQueueOpsFactor))
	},
}
