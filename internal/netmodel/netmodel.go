// Package netmodel implements the α-β performance model of Section 5 of
// the paper: linear latency/bandwidth costs for inter-node collectives
// whose sustained bandwidth degrades with participant count (3D-torus
// bisection scaling), plus a stepped memory-hierarchy model for local
// references.
//
// The paper writes the per-node communication cost of the 1D algorithm's
// all-to-all as p·αN + (m/p)·βN,a2a(p), with βN,a2a(p) ∝ p^{1/3} on a 3D
// torus, and the 2D algorithm's expand as pr·αN + (n/pc)·βN,ag(pr). Those
// expressions are implemented verbatim here; the constants are calibrated
// per machine so projected rates land in the ranges the paper reports.
//
// All costs are returned in seconds; data volumes are in 64-bit words,
// matching the paper's use of memory words.
package netmodel

import "math"

// Machine is a calibrated machine profile. It implements the cost-model
// interface consumed by the cluster substrate.
type Machine struct {
	Name           string
	CoresPerNode   int // cores per network endpoint (NIC sharing)
	ThreadsPerRank int // hybrid threading width used on this machine

	// RanksPerNode is the number of ranks sharing one network endpoint in
	// the current execution layout: CoresPerNode for flat MPI, fewer for
	// hybrid runs. Per-rank sustained bandwidth divides by this factor —
	// the NIC-sharing effect behind the flat-vs-hybrid crossovers in
	// Figures 5 and 7. Zero is treated as 1 (dedicated endpoint).
	RanksPerNode int

	// Network parameters.
	AlphaNet  float64 // per-message latency (s)
	BetaA2A   float64 // all-to-all per-word time at small p (s/word)
	BetaAG    float64 // allgather per-word time at small p (s/word)
	BetaP2P   float64 // point-to-point per-word time (s/word)
	TorusExp  float64 // bandwidth degradation exponent: β(p) = β·p^TorusExp
	TorusRefP float64 // participant count at which β(p) = β (normalization)

	// Local memory parameters.
	BetaMem   float64 // streamed access per-word time (s/word)
	AlphaL1   float64 // random-access latency, working set <= L1 (s)
	AlphaL2   float64 // ... <= L2
	AlphaL3   float64 // ... <= L3
	AlphaDRAM float64 // ... beyond L3
	L1Words   int64   // cache capacities in words
	L2Words   int64
	L3Words   int64

	// ComputeRate scales instruction-bound work: integer ops per second
	// retired by one core on the BFS inner loops. Hopper's Magny-Cours
	// cores are faster in integer work than Franklin's Budapest cores,
	// which is what flips the 1D-vs-2D ranking between Figures 5 and 7.
	ComputeRate float64
}

// torusBeta returns the degraded per-word time for a collective over p
// participants: β · (p/refP)^TorusExp, floored at β for p below refP,
// scaled by the NIC-sharing factor.
func (m *Machine) torusBeta(beta float64, p int) float64 {
	if float64(p) > m.TorusRefP {
		beta *= math.Pow(float64(p)/m.TorusRefP, m.TorusExp)
	}
	if m.RanksPerNode > 1 {
		beta *= float64(m.RanksPerNode)
	}
	return beta
}

// WithRanksPerNode returns a copy of the machine configured for a layout
// with the given number of ranks sharing each network endpoint.
func (m *Machine) WithRanksPerNode(r int) *Machine {
	c := *m
	if r < 1 {
		r = 1
	}
	c.RanksPerNode = r
	return &c
}

// Alltoallv returns the per-node cost of an irregular all-to-all over p
// participants in which this node sends sendWords total and receives
// recvWords total: p·αN + max(send,recv)·βa2a(p).
func (m *Machine) Alltoallv(p int, sendWords, recvWords int64) float64 {
	if p <= 1 {
		return 0
	}
	vol := sendWords
	if recvWords > vol {
		vol = recvWords
	}
	return float64(p)*m.AlphaNet + float64(vol)*m.torusBeta(m.BetaA2A, p)
}

// Allgatherv returns the per-node cost of an allgather over p
// participants in which every node ends with recvWords total:
// p·αN + recv·βag(p).
func (m *Machine) Allgatherv(p int, recvWords int64) float64 {
	if p <= 1 {
		return 0
	}
	return float64(p)*m.AlphaNet + float64(recvWords)*m.torusBeta(m.BetaAG, p)
}

// Allreduce returns the cost of a recursive-doubling allreduce of words
// per node: 2·log2(p)·αN + 2·words·βp2p·log2(p).
func (m *Machine) Allreduce(p int, words int64) float64 {
	if p <= 1 {
		return 0
	}
	lg := math.Log2(float64(p))
	return 2*lg*m.AlphaNet + 2*float64(words)*m.BetaP2P*lg
}

// Bcast returns the cost of a binomial-tree broadcast of words.
func (m *Machine) Bcast(p int, words int64) float64 {
	if p <= 1 {
		return 0
	}
	lg := math.Log2(float64(p))
	return lg * (m.AlphaNet + float64(words)*m.BetaP2P)
}

// Gatherv returns the cost of gathering recvWords total at a root.
func (m *Machine) Gatherv(p int, recvWords int64) float64 {
	if p <= 1 {
		return 0
	}
	return math.Log2(float64(p))*m.AlphaNet + float64(recvWords)*m.BetaP2P
}

// PointToPoint returns the cost of a pairwise exchange of words.
func (m *Machine) PointToPoint(words int64) float64 {
	return m.AlphaNet + float64(words)*m.BetaP2P
}

// AlphaMem returns the random-access latency for a working set of ws
// words, the αL,x term of the paper's model. Between cache capacities the
// latency interpolates geometrically in log(ws): real working sets
// straddle cache levels, so effective latency transitions smoothly
// rather than stepping (a hard step would produce artificial superlinear
// scaling cliffs the measured curves do not show).
func (m *Machine) AlphaMem(ws int64) float64 {
	switch {
	case ws <= m.L1Words:
		return m.AlphaL1
	case ws <= m.L2Words:
		return interpLog(ws, m.L1Words, m.L2Words, m.AlphaL1, m.AlphaL2)
	case ws <= m.L3Words:
		return interpLog(ws, m.L2Words, m.L3Words, m.AlphaL2, m.AlphaL3)
	case ws <= 8*m.L3Words:
		return interpLog(ws, m.L3Words, 8*m.L3Words, m.AlphaL3, m.AlphaDRAM)
	default:
		return m.AlphaDRAM
	}
}

// interpLog interpolates latency geometrically between two cache levels.
func interpLog(ws, lo, hi int64, a, b float64) float64 {
	f := math.Log(float64(ws)/float64(lo)) / math.Log(float64(hi)/float64(lo))
	return a * math.Pow(b/a, f)
}

// MemCost prices a mix of memory traffic: randomRefs random references
// into a working set of wsWords, plus streamWords of unit-stride traffic,
// plus ops instruction-bound operations.
func (m *Machine) MemCost(randomRefs, wsWords, streamWords, ops int64) float64 {
	return float64(randomRefs)*m.AlphaMem(wsWords) +
		float64(streamWords)*m.BetaMem +
		float64(ops)/m.ComputeRate
}
