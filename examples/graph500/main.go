// A miniature Graph 500 submission run, following the benchmark's
// protocol as the paper does: generate the R-MAT instance, construct the
// distributed data structures, run BFS from 16 random search keys in the
// large component, validate every search, and report the harmonic-mean
// TEPS statistics.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"

	"repro"
)

func main() {
	var (
		scale = flag.Int("scale", 14, "R-MAT scale")
		ranks = flag.Int("ranks", 16, "emulated ranks (2D variants run on the closest-square grid)")
		algoF = flag.String("algo", "2d-hybrid", "1d, 1d-hybrid, 2d, or 2d-hybrid")
	)
	flag.Parse()

	algos := map[string]pbfs.Algorithm{
		"1d": pbfs.OneDFlat, "1d-hybrid": pbfs.OneDHybrid,
		"2d": pbfs.TwoDFlat, "2d-hybrid": pbfs.TwoDHybrid,
	}
	algo, ok := algos[*algoF]
	if !ok {
		log.Fatalf("unknown algorithm %q", *algoF)
	}

	fmt.Printf("graph500 mini-run: scale %d, edgefactor 16, %s on %d ranks (hopper model)\n",
		*scale, algo, *ranks)
	g, err := pbfs.NewRMATGraph(*scale, 16, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("construction: n=%d, m=%d\n", g.NumVerts(), g.NumEdges())

	keys := g.Sources(16, 0x500)
	fmt.Printf("running %d searches...\n", len(keys))

	// One session distributes the graph once for all the searches.
	sess := pbfs.NewSession()
	defer sess.Close()
	var times, teps []float64
	for i, src := range keys {
		res, err := sess.Search(g, src, pbfs.Options{Algorithm: algo, Ranks: *ranks, Machine: "hopper"})
		if err != nil {
			log.Fatal(err)
		}
		if err := g.Validate(res); err != nil {
			log.Fatalf("search %d: %v", i+1, err)
		}
		times = append(times, res.SimTime)
		teps = append(teps, res.TEPS())
	}

	// Graph 500 reporting: harmonic-mean TEPS is the headline number.
	var tsum, invSum float64
	minT, maxT := math.Inf(1), 0.0
	for i := range times {
		tsum += times[i]
		invSum += 1 / teps[i]
		minT = math.Min(minT, teps[i])
		maxT = math.Max(maxT, teps[i])
	}
	fmt.Println("\nall searches validated ✓")
	fmt.Printf("mean_time:             %.6f s (simulated)\n", tsum/float64(len(times)))
	fmt.Printf("harmonic_mean_TEPS:    %.3e\n", float64(len(teps))/invSum)
	fmt.Printf("min_TEPS:              %.3e\n", minT)
	fmt.Printf("max_TEPS:              %.3e\n", maxT)
}
