package main

import (
	"math"
	"sort"
)

// tailSamples is how many samples must lie beyond a reported tail
// percentile for it to count as supported.
const tailSamples = 10

// rank is the nearest-rank index of percentile p in n sorted samples.
func rank(n int, p float64) int {
	i := int(math.Ceil(p/100*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return i
}

// percentile returns the nearest-rank p-th percentile of xs and how
// many samples lie strictly beyond its rank. An empty xs reads 0, 0.
func percentile(xs []float64, p float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := rank(len(s), p)
	return s[i], len(s) - 1 - i
}

// highestSupported returns the largest of the candidate percentiles
// that still has tailSamples samples beyond it among n, or 0 when
// none has: the tail a sample of that size can speak for.
func highestSupported(n int, candidates ...float64) float64 {
	best := 0.0
	for _, p := range candidates {
		if n-1-rank(n, p) >= tailSamples && p > best {
			best = p
		}
	}
	return best
}

func median(xs []float64) float64 {
	v, _ := percentile(xs, 50)
	return v
}

// harmonicMean is the Graph 500 mean of rates; zero rates are skipped
// (a search with no simulated clock has no rate).
func harmonicMean(xs []float64) float64 {
	var inv float64
	var n int
	for _, x := range xs {
		if x > 0 {
			inv += 1 / x
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(n) / inv
}
