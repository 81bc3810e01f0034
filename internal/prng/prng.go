// Package prng provides deterministic, splittable pseudo-random number
// generators used throughout the repository.
//
// Reproducibility across runs and across process layouts is essential for
// the benchmark harness: the same (seed, scale, edgefactor) triple must
// produce the same graph regardless of how many ranks participate in
// generation. SplitMix64 gives O(1) stream splitting; xoshiro256** is the
// workhorse generator seeded from it. Both follow the public-domain
// reference algorithms by Blackman and Vigna.
package prng

import "math/bits"

// SplitMix64 is a tiny 64-bit generator with a single word of state.
// It is primarily used to seed other generators and to derive independent
// streams from a (seed, stream-id) pair.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with the given value.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Next returns the next 64-bit value in the sequence.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix64 applies the SplitMix64 finalizer to x. It is a high-quality
// stateless mixing function, useful for hashing rank/stream identifiers
// into seeds.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Xoshiro256 implements the xoshiro256** generator. The zero value is not
// a valid generator; construct with New.
type Xoshiro256 struct {
	s [4]uint64
}

// New returns a xoshiro256** generator seeded from seed via SplitMix64,
// as recommended by the algorithm's authors.
func New(seed uint64) *Xoshiro256 {
	sm := NewSplitMix64(seed)
	var g Xoshiro256
	for i := range g.s {
		g.s[i] = sm.Next()
	}
	// Guard against the all-zero state, which is a fixed point.
	if g.s[0]|g.s[1]|g.s[2]|g.s[3] == 0 {
		g.s[0] = 0x9e3779b97f4a7c15
	}
	return &g
}

// NewStream returns an independent generator for the given (seed, stream)
// pair. Distinct stream ids yield statistically independent sequences, so
// parallel workers can generate disjoint portions of a workload
// deterministically.
func NewStream(seed, stream uint64) *Xoshiro256 {
	return New(Mix64(seed) ^ Mix64(stream*0x9e3779b97f4a7c15+0x6a09e667f3bcc909))
}

// Uint64 returns the next 64 random bits.
func (g *Xoshiro256) Uint64() uint64 {
	result := bits.RotateLeft64(g.s[1]*5, 7) * 9
	t := g.s[1] << 17
	g.s[2] ^= g.s[0]
	g.s[3] ^= g.s[1]
	g.s[1] ^= g.s[2]
	g.s[0] ^= g.s[3]
	g.s[2] ^= t
	g.s[3] = bits.RotateLeft64(g.s[3], 45)
	return result
}

// Float64 returns a uniform float64 in [0, 1).
func (g *Xoshiro256) Float64() float64 {
	return float64(g.Uint64()>>11) / (1 << 53)
}

// Int64n returns a uniform int64 in [0, n). It panics if n <= 0.
func (g *Xoshiro256) Int64n(n int64) int64 {
	if n <= 0 {
		panic("prng: Int64n with non-positive n")
	}
	return int64(g.Uint64n(uint64(n)))
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (g *Xoshiro256) Intn(n int) int {
	return int(g.Int64n(int64(n)))
}

// Uint64n returns a uniform uint64 in [0, n) using Lemire's unbiased
// multiply-shift rejection method. It panics if n == 0.
func (g *Xoshiro256) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("prng: Uint64n with zero n")
	}
	hi, lo := bits.Mul64(g.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(g.Uint64(), n)
		}
	}
	return hi
}

// Perm returns a pseudo-random permutation of [0, n) as an []int64,
// generated by an inside-out Fisher-Yates shuffle.
func (g *Xoshiro256) Perm(n int64) []int64 {
	p := make([]int64, n)
	for i := int64(0); i < n; i++ {
		j := g.Int64n(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}
