package pbfs

import (
	"fmt"
	"math"

	"repro/internal/netmodel"
	"repro/internal/perfmodel"
)

// Projection is a modeled per-search execution profile at a paper-scale
// configuration (see internal/perfmodel for the Section 5 model).
type Projection struct {
	GTEPS       float64
	TotalTime   float64
	ComputeTime float64
	CommTime    float64
	Phases      map[string]float64
	Ranks       int
}

// ProjectRMAT predicts the per-search profile of the given algorithm on
// machine ("franklin", "hopper", "carver") at the given core count for a
// Graph 500 R-MAT instance of 2^scale vertices and edgeFactor·2^scale
// edges. This is how the repository regenerates the paper's
// 40,000-core figures on one host.
func ProjectRMAT(machine string, cores int, algo Algorithm, scale, edgeFactor int) (*Projection, error) {
	if scale < 1 {
		return nil, fmt.Errorf("pbfs: scale %d < 1", scale)
	}
	// The model counts edgeFactor·2^scale edges in an int64.
	if maxEF := int64(math.MaxInt64) >> scale; edgeFactor < 1 || int64(edgeFactor) > maxEF {
		return nil, fmt.Errorf("pbfs: edge factor %d out of range [1, %d] at scale %d",
			edgeFactor, maxEF, scale)
	}
	return project(machine, cores, algo, perfmodel.RMATWorkload(scale, edgeFactor))
}

// ProjectWebCrawl predicts the per-search profile on the uk-union-sized
// high-diameter crawl workload.
func ProjectWebCrawl(machine string, cores int, algo Algorithm) (*Projection, error) {
	return project(machine, cores, algo, perfmodel.UKUnionWorkload())
}

// project prices wl with the paper's top-down model of algo.
func project(machine string, cores int, algo Algorithm, wl perfmodel.Workload) (*Projection, error) {
	m, ok := netmodel.Profiles()[machine]
	if !ok {
		return nil, fmt.Errorf("pbfs: unknown machine %q", machine)
	}
	if cores < 1 {
		return nil, fmt.Errorf("pbfs: core count %d < 1", cores)
	}
	switch algo {
	case OneDFlat, OneDHybrid, TwoDFlat, TwoDHybrid, Reference, PBGL:
	default:
		return nil, fmt.Errorf("pbfs: unknown algorithm %d", int(algo))
	}
	if err := wl.Validate(); err != nil {
		return nil, err
	}
	b := perfmodel.Predict(perfmodel.Config{Machine: m, Cores: cores, Algo: perfmodel.Algo(algo)}, wl)
	return &Projection{
		GTEPS:       b.GTEPS,
		TotalTime:   b.Total,
		ComputeTime: b.Comp,
		CommTime:    b.Comm,
		Phases:      b.Phase,
		Ranks:       b.Ranks,
	}, nil
}
