// Package graph500 provides the benchmark methodology of the Graph 500
// specification as used in the paper's Section 6: search-key selection
// from the large connected component, the TEPS (traversed edges per
// second) metric, and summary statistics over a batch of searches.
package graph500

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/prng"
	"repro/internal/serial"
)

// SelectSources returns k distinct BFS search keys sampled uniformly from
// the largest connected component, restricted to vertices with at least
// one neighbor — the paper's protocol ("at least 16 randomly-chosen
// sources ... that appear in the large component").
func SelectSources(ref *graph.CSR, k int, seed uint64) []int64 {
	comp, count := graph.ConnectedComponents(ref)
	id, _ := graph.LargestComponent(comp, count)
	rng := prng.NewStream(seed, 0x5fc)
	return graph.SampleSources(ref, comp, id, k, rng.Int64n)
}

// TEPS returns the traversed-edges-per-second rate for a search that
// visited the given number of undirected input edges in t seconds.
func TEPS(edges int64, t float64) float64 {
	if t <= 0 {
		return 0
	}
	return float64(edges) / t
}

// Run records one timed search.
type Run struct {
	Source   int64
	Time     float64 // seconds (simulated machine time)
	CommTime float64 // seconds spent in communication, max over ranks
	Edges    int64   // undirected edges traversed
	Levels   int64
}

// Stats summarizes a batch of searches the way Graph 500 reports them.
type Stats struct {
	NumRuns int
	// Times.
	MeanTime   float64
	MinTime    float64
	MaxTime    float64
	MedianTime float64
	// Communication (mean over runs of the per-run max-over-ranks).
	MeanCommTime float64
	// Rates. HarmonicMeanTEPS is the headline Graph 500 statistic: the
	// harmonic mean is the edge-weighted correct aggregate of rates.
	HarmonicMeanTEPS float64
	MinTEPS          float64
	MaxTEPS          float64
	// Mean levels per search.
	MeanLevels float64
}

// Summarize computes batch statistics. It panics on an empty batch.
func Summarize(runs []Run) Stats {
	if len(runs) == 0 {
		panic("graph500: no runs to summarize")
	}
	st := Stats{NumRuns: len(runs), MinTime: math.Inf(1), MinTEPS: math.Inf(1)}
	times := make([]float64, 0, len(runs))
	var invSum float64
	for _, r := range runs {
		teps := TEPS(r.Edges, r.Time)
		st.MeanTime += r.Time
		st.MeanCommTime += r.CommTime
		st.MeanLevels += float64(r.Levels)
		times = append(times, r.Time)
		if r.Time < st.MinTime {
			st.MinTime = r.Time
		}
		if r.Time > st.MaxTime {
			st.MaxTime = r.Time
		}
		if teps < st.MinTEPS {
			st.MinTEPS = teps
		}
		if teps > st.MaxTEPS {
			st.MaxTEPS = teps
		}
		if teps > 0 {
			invSum += 1 / teps
		}
	}
	n := float64(len(runs))
	st.MeanTime /= n
	st.MeanCommTime /= n
	st.MeanLevels /= n
	if invSum > 0 {
		st.HarmonicMeanTEPS = n / invSum
		if st.MinTEPS > 0 {
			// The exact mean of positive rates lies in [min, max], but
			// n/Σ(1/x) over equal rates can round one ulp outside it.
			st.HarmonicMeanTEPS = min(max(st.HarmonicMeanTEPS, st.MinTEPS), st.MaxTEPS)
		}
	}
	sort.Float64s(times)
	if len(times)%2 == 1 {
		st.MedianTime = times[len(times)/2]
	} else {
		st.MedianTime = (times[len(times)/2-1] + times[len(times)/2]) / 2
	}
	return st
}

// SummarizeByClass computes per-group batch statistics for runs tagged
// with a class label (the serving layer's SLO classes): each non-empty
// group is summarized independently, so a slow "batch"-class search
// cannot drag down the "interactive" harmonic mean. Empty groups are
// dropped rather than panicking, since a serving window may simply not
// have seen a class.
func SummarizeByClass(classes map[string][]Run) map[string]Stats {
	out := make(map[string]Stats, len(classes))
	for class, runs := range classes {
		if len(runs) == 0 {
			continue
		}
		out[class] = Summarize(runs)
	}
	return out
}

// Percentile returns the p-th percentile of values by the nearest-rank
// method (p in (0, 100]; p=50 is the median rank, p=100 the maximum).
// It returns 0 on an empty slice and does not modify its argument.
func Percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// BatchStats extends Stats with the whole-batch aggregates of a
// multi-source (MS-BFS) run, where one traversal serves many searches.
type BatchStats struct {
	Stats
	// BatchTime is the simulated time of the whole batch — what the
	// machine actually spent, as opposed to the per-search amortized
	// times the embedded Stats are computed over.
	BatchTime float64
	// UniqueEdges counts each undirected edge incident to the union of
	// the reached sets once, no matter how many searches scanned it.
	UniqueEdges int64
	// MachineTEPS is UniqueEdges/BatchTime: the hardware throughput
	// under the "count each shared edge scan once" rule. The harmonic
	// mean credits every search its full edge count at the amortized
	// time, so it rises with batch width; MachineTEPS does not — adding
	// a duplicate source to a batch leaves it unchanged.
	MachineTEPS float64
}

// SummarizeBatch computes the Graph 500 per-search statistics over runs
// (whose times should be the batch's amortized per-search shares) plus
// the whole-batch machine rate. It panics on an empty batch.
func SummarizeBatch(runs []Run, uniqueEdges int64, batchTime float64) BatchStats {
	return BatchStats{
		Stats:       Summarize(runs),
		BatchTime:   batchTime,
		UniqueEdges: uniqueEdges,
		MachineTEPS: TEPS(uniqueEdges, batchTime),
	}
}

// ValidateOutput checks a distributed BFS output against the Graph 500
// validation rules plus an independent serial reference.
func ValidateOutput(ref *graph.CSR, source int64, dist, parent []int64) error {
	res := &serial.Result{Source: source, Dist: dist, Parent: parent}
	sref := serial.BFS(ref, source)
	if err := serial.Validate(ref, res, sref); err != nil {
		return fmt.Errorf("graph500: %w", err)
	}
	return nil
}
