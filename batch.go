package pbfs

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/graph500"
	"repro/internal/levels"
)

// BatchWidth is the number of sources one bit-parallel batch traverses
// together: each vertex carries one uint64 "active-in-search-k" mask, so
// a word's worth of searches share every adjacency scan and every
// per-level collective. BFSBatch accepts any number of sources and
// splits them into batches of at most this width.
const BatchWidth = levels.BatchWidth

// BatchResult is the output of a multi-source BFS batch: one Result per
// source plus the whole-batch execution profile. For the bit-parallel
// engines (the 1D and 2D variants) the batch runs one shared level
// loop, so the per-source SimTime/CommTime are the amortized equal
// share of the batch's clock — the quantity the Graph 500 harmonic mean
// is taken over — while the volume and scan totals live here, on the
// batch. Engines without a bit-parallel path (Reference, PBGL) fall
// back to a sequential per-source loop whose per-source times are the
// searches' own. A one-source chunk under any engine runs that
// engine's single search: its Result is the search's, times and all,
// and the chunk's totals are that search's.
type BatchResult struct {
	Sources []int64
	// Results holds one per-source BFS output, index-aligned with
	// Sources. Distances are bit-identical to running each source
	// through Session.Search; parents are valid (not necessarily
	// identical) BFS trees.
	Results []*Result
	// BatchLevels counts the level iterations the execution paid
	// collectives for: the shared loop's iteration count under a
	// bit-parallel engine, the per-search sum under the sequential
	// fallback. The amortization claim is exactly BatchLevels collapsing
	// from sum-of-searches to max-over-searches.
	BatchLevels int64
	// UniqueTraversedEdges counts each undirected edge incident to the
	// union of the reached sets once, no matter how many searches in the
	// batch scanned it — the denominator of MachineTEPS, and the
	// "counts each shared edge scan once" accounting rule. Duplicate
	// sources add nothing to it. For batches split across more than one
	// BatchWidth-wide chunk, uniqueness holds within each chunk.
	UniqueTraversedEdges int64
	// ScannedTopDown and ScannedBottomUp count adjacency entries the
	// batch actually examined, split by phase; one scan serving many
	// searches counts once.
	ScannedTopDown  int64
	ScannedBottomUp int64
	// SimTime and CommTime are the whole batch's simulated seconds
	// (sums over chunks; zero when no Machine was configured).
	SimTime  float64
	CommTime float64
	// CommByPhase breaks the batch's communication down by collective
	// tag, summed over chunks.
	CommByPhase map[string]float64
	// SentWords and RecvWords total the words moved by the batch's
	// collectives: with (vertex, mask) payloads one exchange serves
	// every search, so these grow far slower than linearly in the
	// number of sources.
	SentWords, RecvWords int64
	// LevelFrontier, LevelScanned, LevelBottomUp and LevelCommWords,
	// when Options.Trace is set on a bit-parallel engine, hold the
	// shared level loop's per-iteration profile (frontier counts summed
	// over the batch); chunked batches concatenate their loops. A
	// one-source chunk contributes its search's own profile. The
	// sequential fallback leaves them nil for wider chunks.
	LevelFrontier  []int64
	LevelScanned   []int64
	LevelBottomUp  []bool
	LevelCommWords []int64
}

// MachineTEPS is the machine-throughput rate of the batch: unique
// traversed edges per simulated second. Unlike the per-source harmonic
// mean, it counts each shared edge scan once, so it measures what the
// hardware did rather than crediting the same scan to 64 searches.
func (b *BatchResult) MachineTEPS() float64 {
	return graph500.TEPS(b.UniqueTraversedEdges, b.SimTime)
}

// BFSBatch runs one BFS per source through the multi-source (MS-BFS)
// path: sources traverse in bit-parallel batches of up to BatchWidth,
// sharing every adjacency scan and every per-level collective, so the
// amortized per-source cost is a fraction of Search's. Distances are
// bit-identical to per-source Search calls under the same options;
// parents are valid BFS trees. Duplicate and mutually unreachable
// sources are fine — a search retires from the batch mask when its
// frontier empties.
//
// A chunk of exactly one source — a one-source call, or the one-source
// tail of a 65-source call — has no scan to share, so it runs the
// engine's single search instead of a 64-lane mask loop: its Result is
// bit-identical to Search's (parents and per-source times included),
// and under Options.Trace its level slices are filled from the search.
//
// The engine (distribution, world, arenas — including the batch mask
// planes) is the same cached engine Search uses for opt's layout, so
// mixing Search and BFSBatch on one session pays one distribution.
func (s *Session) BFSBatch(g *Graph, sources []int64, opt Options) (*BatchResult, error) {
	if g == nil {
		return nil, fmt.Errorf("pbfs: nil graph")
	}
	if len(sources) == 0 {
		return nil, fmt.Errorf("pbfs: empty source batch")
	}
	for _, src := range sources {
		if src < 0 || src >= g.NumVerts() {
			return nil, fmt.Errorf("pbfs: source %d out of range [0,%d)", src, g.NumVerts())
		}
	}
	lay, err := resolveLayout(opt)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	eng, err := s.engineLocked(lay, g)
	if err != nil {
		return nil, err
	}
	var acc *BatchResult
	for lo := 0; lo < len(sources); lo += BatchWidth {
		hi := lo + BatchWidth
		if hi > len(sources) {
			hi = len(sources)
		}
		var chunk *BatchResult
		if hi-lo == 1 { // nothing to share: run the single search
			chunk, err = sequentialBatch(eng, sources[lo:hi], opt)
		} else {
			chunk, err = eng.searchBatch(sources[lo:hi], opt)
		}
		if err != nil {
			return nil, err
		}
		acc = appendBatch(acc, chunk)
	}
	return acc, nil
}

// BFSBatch is the one-shot form of Session.BFSBatch: distribution and
// scratch are built, used for this batch, and released.
func (g *Graph) BFSBatch(sources []int64, opt Options) (*BatchResult, error) {
	s := NewSession()
	defer s.Close()
	return s.BFSBatch(g, sources, opt)
}

// newBatchResult converts a bit-parallel driver output into a
// BatchResult priced by w's ledger, charging each search an equal share
// of the batch's clock. Edge counts halve as in newResult.
func newBatchResult(out *levels.BatchOutput, w *cluster.World) *BatchResult {
	br := &BatchResult{
		Sources: out.Sources, BatchLevels: out.BatchLevels,
		UniqueTraversedEdges: out.UniqueTraversedEdges / 2,
		ScannedTopDown:       out.ScannedTopDown, ScannedBottomUp: out.ScannedBottomUp,
		LevelFrontier: out.LevelFrontier, LevelScanned: out.LevelScanned,
		LevelBottomUp: out.LevelBottomUp, LevelCommWords: out.LevelCommWords,
	}
	br.SimTime, br.CommTime, br.CommByPhase, br.SentWords, br.RecvWords = ledger(w)
	k := float64(len(br.Sources))
	for s, src := range br.Sources {
		br.Results = append(br.Results, &Result{
			Source: src, Dist: out.Dist[s], Parent: out.Parent[s],
			Levels: out.Levels[s], TraversedEdges: out.TraversedEdges[s] / 2,
			SimTime: br.SimTime / k, CommTime: br.CommTime / k,
		})
	}
	return br
}

// appendBatch folds one chunk's result into the accumulator — the
// >BatchWidth chunking path. Scalars sum, per-source slices concatenate.
func appendBatch(acc, chunk *BatchResult) *BatchResult {
	if acc == nil {
		return chunk
	}
	acc.Sources = append(acc.Sources, chunk.Sources...)
	acc.Results = append(acc.Results, chunk.Results...)
	acc.BatchLevels += chunk.BatchLevels
	acc.UniqueTraversedEdges += chunk.UniqueTraversedEdges
	acc.ScannedTopDown += chunk.ScannedTopDown
	acc.ScannedBottomUp += chunk.ScannedBottomUp
	acc.SimTime += chunk.SimTime
	acc.CommTime += chunk.CommTime
	acc.SentWords += chunk.SentWords
	acc.RecvWords += chunk.RecvWords
	mergePhases(&acc.CommByPhase, chunk.CommByPhase)
	acc.LevelFrontier = append(acc.LevelFrontier, chunk.LevelFrontier...)
	acc.LevelScanned = append(acc.LevelScanned, chunk.LevelScanned...)
	acc.LevelBottomUp = append(acc.LevelBottomUp, chunk.LevelBottomUp...)
	acc.LevelCommWords = append(acc.LevelCommWords, chunk.LevelCommWords...)
	return acc
}

// mergePhases adds src's per-tag seconds into *dst, allocating it on
// first use.
func mergePhases(dst *map[string]float64, src map[string]float64) {
	if len(src) == 0 {
		return
	}
	if *dst == nil {
		*dst = make(map[string]float64, len(src))
	}
	for tag, v := range src {
		(*dst)[tag] += v
	}
}
