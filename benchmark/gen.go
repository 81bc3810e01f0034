package main

import (
	"math/rand"
	"sort"
	"time"
)

// Everything the program under test receives is generated here from
// the -seed argument and nothing else: graph seeds, search keys, the
// order they are asked in, and when.

// subSeed derives the k-th independent stream of seed (splitmix64).
func subSeed(seed uint64, k int) uint64 {
	z := seed + uint64(k+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func newRand(seed uint64, k int) *rand.Rand {
	return rand.New(rand.NewSource(int64(subSeed(seed, k))))
}

// poissonSchedule returns the due offsets of a Poisson process of the
// given rate over dur, conditioned on its expected count: rate·dur
// instants drawn uniformly and sorted, which is how a Poisson process
// looks once its count is known. Arrivals bunch the way independent
// users do, while every seed offers exactly the same load.
func poissonSchedule(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	due := make([]time.Duration, int(rate*dur.Seconds()+0.5))
	for i := range due {
		due[i] = time.Duration(rng.Float64() * float64(dur))
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	return due
}

// rotation hands out a pool in a seeded permuted order, round-robin:
// every element returns after exactly len(pool) others, so a cache
// smaller than the pool never sees a repeat it still holds.
type rotation struct {
	pool []int64
	next int
}

func newRotation(rng *rand.Rand, pool []int64) *rotation {
	p := append([]int64(nil), pool...)
	rng.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return &rotation{pool: p}
}

func (r *rotation) take() int64 {
	v := r.pool[r.next]
	r.next = (r.next + 1) % len(r.pool)
	return v
}

// Traffic mix of the two served graphs and the share of queries that
// carry a deadline.
const (
	rmatShare     = 0.7
	deadlineShare = 0.25
)

// arrival is one open-loop query: when it is due, what it asks.
type arrival struct {
	due      time.Duration
	graph    int // index into the served graphs
	source   int64
	deadline bool
}

// openSchedule draws a Poisson arrival stream over the served graphs,
// sources taken from each graph's rotation.
func openSchedule(rng *rand.Rand, rate float64, dur time.Duration, rots []*rotation) []arrival {
	dues := poissonSchedule(rng, rate, dur)
	out := make([]arrival, len(dues))
	for i, d := range dues {
		g := 0
		if rng.Float64() >= rmatShare {
			g = 1
		}
		out[i] = arrival{due: d, graph: g, source: rots[g].take(), deadline: rng.Float64() < deadlineShare}
	}
	return out
}

// zipfPicker draws (graph, source) pairs for the closed-loop clients:
// Zipf(1.2) rank within each graph's pool, so a small head of sources
// takes most of the traffic.
type zipfPicker struct {
	rng   *rand.Rand
	zipfs []*rand.Zipf
	pools [][]int64
}

func newZipfPicker(rng *rand.Rand, pools [][]int64) *zipfPicker {
	z := &zipfPicker{rng: rng, pools: pools}
	for _, p := range pools {
		z.zipfs = append(z.zipfs, rand.NewZipf(rng, 1.2, 1, uint64(len(p)-1)))
	}
	return z
}

func (z *zipfPicker) pick() (graph int, source int64) {
	if z.rng.Float64() >= rmatShare {
		graph = 1
	}
	return graph, z.pools[graph][z.zipfs[graph].Uint64()]
}
