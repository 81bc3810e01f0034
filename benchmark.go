package pbfs

import (
	"fmt"

	"repro/internal/graph500"
)

// BatchStats summarizes a multi-source benchmark the way Graph 500
// reports results, plus the whole-batch machine rate of the MS-BFS
// execution the protocol now runs through.
type BatchStats struct {
	NumSearches      int
	MeanTime         float64 // simulated seconds per search (amortized batch share)
	MinTime          float64
	MaxTime          float64
	MedianTime       float64
	MeanCommTime     float64
	HarmonicMeanTEPS float64 // the headline Graph 500 statistic
	MinTEPS          float64
	MaxTEPS          float64
	MeanLevels       float64
	// BatchTime is the whole batch's simulated time — with the
	// bit-parallel engines a fraction of NumSearches×MeanTime would have
	// been without batching, because every level's edge scans and
	// collectives are shared.
	BatchTime float64
	// UniqueEdges and MachineTEPS apply the shared-scan accounting rule:
	// each undirected edge incident to the union of the reached sets
	// counts once, no matter how many searches scanned it, so
	// MachineTEPS = UniqueEdges/BatchTime measures hardware throughput
	// rather than crediting one scan to 64 searches.
	UniqueEdges int64
	MachineTEPS float64
}

// Benchmark runs the Graph 500 measurement protocol on this graph: k
// search keys sampled from the largest component, traversed through the
// multi-source (MS-BFS) batch path under opt, every search validated,
// and the batch summarized. It returns an error if any search fails
// validation — a benchmark that reports rates for wrong answers is
// worthless.
//
// The batch runs through one Session's bit-parallel engine, so the
// graph is distributed once and up to BatchWidth searches share every
// adjacency scan and every per-level collective; per-search times (and
// the harmonic-mean TEPS over them) are the amortized equal shares of
// the batch's clock. Engines without a batched path (Reference, PBGL)
// run the same protocol sequentially.
func (g *Graph) Benchmark(opt Options, k int, seed uint64) (*BatchStats, error) {
	if k < 1 {
		k = 16 // the paper's minimum search count
	}
	sources := g.Sources(k, seed)
	if len(sources) == 0 {
		return nil, fmt.Errorf("pbfs: no usable search keys")
	}
	sess := NewSession()
	defer sess.Close()
	br, err := sess.BFSBatch(g, sources, opt)
	if err != nil {
		return nil, err
	}
	runs := make([]graph500.Run, 0, len(br.Results))
	for i, res := range br.Results {
		if err := g.Validate(res); err != nil {
			return nil, fmt.Errorf("pbfs: search %d from %d failed validation: %w", i+1, res.Source, err)
		}
		runs = append(runs, graph500.Run{
			Source:   res.Source,
			Time:     res.SimTime,
			CommTime: res.CommTime,
			Edges:    res.TraversedEdges,
			Levels:   res.Levels,
		})
	}
	st := graph500.SummarizeBatch(runs, br.UniqueTraversedEdges, br.SimTime)
	return &BatchStats{
		NumSearches:      st.NumRuns,
		MeanTime:         st.MeanTime,
		MinTime:          st.MinTime,
		MaxTime:          st.MaxTime,
		MedianTime:       st.MedianTime,
		MeanCommTime:     st.MeanCommTime,
		HarmonicMeanTEPS: st.HarmonicMeanTEPS,
		MinTEPS:          st.MinTEPS,
		MaxTEPS:          st.MaxTEPS,
		MeanLevels:       st.MeanLevels,
		BatchTime:        st.BatchTime,
		UniqueEdges:      st.UniqueEdges,
		MachineTEPS:      st.MachineTEPS,
	}, nil
}
