package levels

import (
	mbits "math/bits"

	"repro/internal/cluster"
	"repro/internal/serial"
)

// BatchWidth is the maximum number of sources one batched run traverses
// simultaneously: one bit per search in a uint64 mask.
const BatchWidth = 64

// FullMask returns the mask with one bit set per search of a width-wide
// batch.
func FullMask(width int) uint64 {
	if width >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(width) - 1
}

// BatchOutput is the result of a batched (multi-source) BFS: per-search
// outputs plus the shared execution profile. Distances are bit-identical
// to running each source alone, since BFS level sets are unique; parents
// are independently valid BFS trees (the batched first-visit resolution
// may claim a different valid parent).
type BatchOutput struct {
	Sources []int64
	Dist    [][]int64 // [search][vertex] global distance arrays
	Parent  [][]int64 // [search][vertex] global parent arrays
	Levels  []int64   // per-search discovering-level count
	// TraversedEdges is the per-search TEPS denominator: adjacency slots
	// of vertices reached by that search (shared edges counted once per
	// search, as Graph 500 requires for per-search rates).
	TraversedEdges []int64
	// UniqueTraversedEdges counts adjacency slots of vertices reached by
	// any search in the batch, each shared edge scan once: the
	// machine-throughput denominator of the batched mode.
	UniqueTraversedEdges int64
	// BatchLevels is the number of shared discovering levels the batch
	// executed (the max over its searches, which advance in lockstep).
	BatchLevels int64
	Profile
}

// Batch assembles a BatchOutput while the ranks run: it owns the
// per-search output planes the rank bodies commit into and the visited
// masks their tails hand back for the edge count.
type Batch struct {
	Out *BatchOutput
	vis [][]uint64 // per rank: visited masks over its owned vertices
}

// NewBatch allocates the output planes of a batch over n vertices on p
// ranks, so rank bodies commit distances and parents straight into them
// (each rank owns a disjoint vertex range, so the writes are race-free).
// One backing array per kind keeps the batch at two large allocations
// instead of 2*width, and three-index slicing stops a caller's append
// from bleeding across planes. The stride pads each plane by a cache
// line: a commit touches up to width planes at the same vertex offset,
// and an exact power-of-two stride would put every one of those writes
// in the same cache set. FinishRank overwrites the never-visited slots
// with Unreached, so the planes need no initialization pass.
func NewBatch(sources []int64, n int64, p int) *Batch {
	width := len(sources)
	stride := n + 8
	out := &BatchOutput{
		Sources:        append([]int64(nil), sources...),
		Dist:           make([][]int64, width),
		Parent:         make([][]int64, width),
		Levels:         make([]int64, width),
		TraversedEdges: make([]int64, width),
	}
	distBack := make([]int64, int64(width)*stride)
	parBack := make([]int64, int64(width)*stride)
	for s := 0; s < width; s++ {
		lo := int64(s) * stride
		hi := lo + n
		out.Dist[s] = distBack[lo:hi:hi]
		out.Parent[s] = parBack[lo:hi:hi]
	}
	return &Batch{Out: out, vis: make([][]uint64, p)}
}

// Retire records, on rank 0, that the searches whose bits are set in
// active (the reduced OR of a level's discoveries) discovered at level;
// a search's last such level is its discovering-level count.
func (b *Batch) Retire(r *cluster.Rank, active uint64, level int64) {
	if r.ID() != 0 {
		return
	}
	for rem := active; rem != 0; rem &= rem - 1 {
		b.Out.Levels[mbits.TrailingZeros64(rem)] = level
	}
}

// FinishRank ends rank r's part of the batch. It fills the never-visited
// (vertex, search) slots of the rank's owned range [lo, lo+len(vis))
// with Unreached, plane-major so each plane's segment is one ascending
// stream (vertex-major order would scatter every vertex's misses across
// all width planes); commits already wrote the discovered slots. It then
// keeps vis, the rank's visited masks, for CountEdges without copying
// them: the caller must not reuse that memory before the count. Rank 0
// also reports the batch's discovering-level count.
func (b *Batch) FinishRank(r *cluster.Rank, lo int64, vis []uint64, levels int64) {
	hi := lo + int64(len(vis))
	for s := range b.Out.Dist {
		bit := uint64(1) << uint(s)
		dp := b.Out.Dist[s][lo:hi]
		pp := b.Out.Parent[s][lo:hi]
		for vl, m := range vis {
			if m&bit == 0 {
				dp[vl] = serial.Unreached
				pp[vl] = serial.Unreached
			}
		}
	}
	b.vis[r.ID()] = vis
	if r.ID() == 0 {
		b.Out.BatchLevels = levels
	}
}

// CountEdges adds rank's reached vertices to the per-search and unique
// traversed-edge counts, deg giving the stored degree of the rank's
// vl-th owned vertex. On a connected batch most vertices are visited by
// every search, so a whole-mask fast path defers their per-search
// credit to one pass over the searches and the bit loops run only on the
// fringe.
func (b *Batch) CountEdges(rank int, deg func(vl int64) int64) {
	out := b.Out
	fullMask := FullMask(len(out.Sources))
	var degAll int64 // degree sum of this rank's fully-visited vertices
	for vl, m := range b.vis[rank] {
		if m == 0 {
			continue
		}
		d := deg(int64(vl))
		out.UniqueTraversedEdges += d
		if m == fullMask {
			degAll += d
			continue
		}
		for rem := m; rem != 0; rem &= rem - 1 {
			out.TraversedEdges[mbits.TrailingZeros64(rem)] += d
		}
	}
	for s := range out.TraversedEdges {
		out.TraversedEdges[s] += degAll
	}
}
