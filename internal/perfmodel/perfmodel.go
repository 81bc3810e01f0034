// Package perfmodel implements the closed-form performance model of the
// paper's Section 5 and uses it to project BFS execution at the paper's
// machine scales (hundreds to tens of thousands of cores) — scales the
// emulated substrate cannot reach on one host.
//
// The model composes:
//
//   - local computation priced by the memory-reference model: streamed
//     words at βL, random references at αL(working set), instruction
//     work at the machine's integer rate (Section 5.1/5.2);
//   - communication priced by the α-β collective model with
//     participant-dependent sustained bandwidths (Section 5.1/5.2);
//   - an occupancy model for the 2D fold volume capturing in-node
//     aggregation: when block columns are dense, duplicate discoveries
//     collapse before the Alltoallv, shrinking its volume (Section 5.2's
//     remark that in-node aggregation weakens for sparser graphs).
//
// Every projected figure in EXPERIMENTS.md comes from this package; the
// emulated runs cross-check the same code paths at small scale.
package perfmodel

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/netmodel"
)

// Algo identifies one of the paper's four algorithm variants plus the
// two comparators.
type Algo int

const (
	OneDFlat Algo = iota
	OneDHybrid
	TwoDFlat
	TwoDHybrid
	Reference // Graph 500 reference MPI style
	PBGL      // Parallel Boost Graph Library style
)

// String returns the name used in tables and figures.
func (a Algo) String() string {
	switch a {
	case OneDFlat:
		return "1D Flat MPI"
	case OneDHybrid:
		return "1D Hybrid"
	case TwoDFlat:
		return "2D Flat MPI"
	case TwoDHybrid:
		return "2D Hybrid"
	case Reference:
		return "Graph500 reference"
	case PBGL:
		return "PBGL"
	}
	return "unknown"
}

// Hybrid reports whether the variant uses intra-rank threading.
func (a Algo) Hybrid() bool { return a == OneDHybrid || a == TwoDHybrid }

// Workload describes a BFS problem instance.
type Workload struct {
	N int64 // vertices
	M int64 // directed input edges (Graph 500 counts these for TEPS)
	// Levels is the expected number of BFS levels (R-MAT: ~8 at these
	// scales; uk-union: ~140).
	Levels int64
	// HeavyLevels is the number of levels carrying the bulk of the edge
	// volume (R-MAT: ~3; high-diameter crawls: most levels).
	HeavyLevels int64
}

// RMATWorkload returns the workload parameters for a Graph 500 R-MAT
// instance of the given scale and edge factor.
func RMATWorkload(scale, edgeFactor int) Workload {
	return Workload{
		N:           int64(1) << uint(scale),
		M:           int64(edgeFactor) << uint(scale),
		Levels:      8,
		HeavyLevels: 3,
	}
}

// UKUnionWorkload returns workload parameters mimicking the uk-union web
// crawl: n ≈ 133M, m ≈ 5.5B directed edges, diameter ≈ 140.
func UKUnionWorkload() Workload {
	return Workload{N: 133e6, M: 5507e6, Levels: 140, HeavyLevels: 110}
}

// maxModelEdges is the most input edges a workload may have. The model
// counts words in int64; the largest count it forms is PBGL's
// pbglWordsPerEdge words for each of up to 2·M adjacency slots, so M up
// to MaxInt64/(2·pbglWordsPerEdge) keeps every count in range.
const maxModelEdges = math.MaxInt64 / (2 * pbglWordsPerEdge)

// Validate returns an error when wl is not a workload the model can
// price: a count below one, or edge or word counts that would overflow
// the model's int64 arithmetic.
func (wl Workload) Validate() error {
	if wl.N < 1 || wl.M < 1 || wl.Levels < 1 || wl.HeavyLevels < 1 {
		return fmt.Errorf("perfmodel: bad workload %+v", wl)
	}
	if wl.M > maxModelEdges {
		return fmt.Errorf("perfmodel: %d edges exceed the model's limit of %d", wl.M, int64(maxModelEdges))
	}
	// The bitmap exchange rounds n up to whole 64-bit words.
	if wl.N > math.MaxInt64-63 {
		return fmt.Errorf("perfmodel: %d vertices overflow the bitmap word count", wl.N)
	}
	return nil
}

// Config is one point in the experiment space.
type Config struct {
	Machine *netmodel.Machine
	Cores   int
	Algo    Algo
	// DirOpt prices the direction-optimizing (Beamer) runtime: the
	// heavy middle levels run bottom-up, scanning a small fraction of
	// their edges and exchanging the frontier as a dense bitmap
	// (allgather of n/64 words per level, phase "bitmap") instead of
	// the sparse all-to-all. False reproduces the paper's top-down-only
	// projections unchanged.
	DirOpt bool
	// PartitionedBitmap prices the bottom-up frontier exchange through
	// the pr×pc grid subcommunicators instead of one world-wide
	// allgather: per heavy level each rank exchanges its row-block
	// slice along its processor row (n/(64·pr) words over pc members)
	// and its block-column slice along its processor column (n/(64·pc)
	// words over pr members), so the per-rank bitmap volume shrinks as
	// 1/√p where the dense exchange stays n/64 regardless of p — the
	// crossover where the bitmap overtakes the pull savings moves out
	// by ~√p. Only meaningful for the 2D variants (the 1D pull needs
	// the global bitmap) with DirOpt set; ignored otherwise.
	PartitionedBitmap bool
	// BatchWidth is the number of concurrent searches sharing one
	// multi-source (MS-BFS) traversal: frontier and visited state become
	// one 64-bit mask word per vertex, so up to 64 searches ride every
	// adjacency scan and every per-level collective. The prediction stays
	// a per-search profile — the batch's cost divided by its width — so
	// GTEPS is the amortized per-search rate and the amortization factor
	// is Predict(width=1).Total / Predict(width=w).Total. Values are
	// clamped to [1, 64]; 0 means 1 (classic single-source). Ignored by
	// the comparator codes (no MS-BFS path).
	BatchWidth int
}

// Breakdown is a predicted per-search execution profile.
type Breakdown struct {
	Comp  float64 // local computation seconds
	Comm  float64 // total communication seconds
	Phase map[string]float64
	Total float64 // Comp + Comm
	GTEPS float64
	Ranks int
	Grid  [2]int // pr, pc for 2D variants
}

// ranksAndThreads maps a core count to (ranks, threads) for the variant.
func (c Config) ranksAndThreads() (int, int) {
	t := 1
	if c.Algo.Hybrid() {
		t = c.Machine.ThreadsPerRank
	}
	ranks := c.Cores / t
	if ranks < 1 {
		ranks = 1
	}
	return ranks, t
}

// Predict returns the modeled per-search profile for the configuration.
// For a batched direction-optimized search, the per-batch direction
// heuristic degrades to top-down when the mask-plane bitmap exchange
// (64x the single-search words, width-independent) outweighs the pull
// savings — the model mirrors that retirement-aware fallback by taking
// the cheaper of the two projections. It panics on a nil machine or a
// workload Validate rejects.
func Predict(cfg Config, wl Workload) Breakdown {
	if cfg.Machine == nil {
		panic("perfmodel: nil machine")
	}
	if err := wl.Validate(); err != nil {
		panic(err)
	}
	b := predictDispatch(cfg, wl)
	if cfg.DirOpt && cfg.batchWidth() > 1 &&
		cfg.Algo != Reference && cfg.Algo != PBGL {
		td := cfg
		td.DirOpt = false
		if alt := predictDispatch(td, wl); alt.Total < b.Total {
			b = alt
		}
	}
	return b
}

func predictDispatch(cfg Config, wl Workload) Breakdown {
	switch cfg.Algo {
	case OneDFlat, OneDHybrid:
		return predict1D(cfg, wl, oneDFactors{comp: 1, extraPasses: 0, commVol: 1, latency: 1})
	case TwoDFlat, TwoDHybrid:
		return predict2D(cfg, wl)
	case Reference:
		return predict1D(cfg, wl, oneDFactors{
			comp: refCompFactor, extraPasses: refExtraStreamPasses,
			commVol: refCommVolFactor, latency: refLatencyFactor,
		})
	case PBGL:
		return predictPBGL(cfg, wl)
	}
	panic("perfmodel: unknown algorithm")
}

// Inefficiency constants for the comparator codes (see internal/baseline
// for the executable versions and their calibration tests).
const (
	// Reference-code factors: the sort-based integration doubles the
	// local work (refCompFactor); each exchanged edge carries two extra
	// words of record padding while the non-torus-aware exchange
	// sustains roughly half the tuned bandwidth (together
	// refCommVolFactor); and the unaggregated sends cost several times
	// the message latency per level (refLatencyFactor). Calibrated so
	// the projected gap matches the measured 2.72x/3.43x/4.13x at
	// 512/1024/2048 cores (Section 6).
	refCompFactor        = 2.0
	refExtraStreamPasses = 2
	refCommVolFactor     = 4.0
	refLatencyFactor     = 8.0

	// PBGL factors: serialized property-map messages are several words
	// per edge, eagerly batched in small chunks, with generic-dispatch
	// work per element (Table 2's 10-16x gap).
	pbglWordsPerEdge = 12
	pbglOpsPerEdge   = 2000
	pbglBatchEdges   = 8 // edges per eager message

	spaExtractOps = 4 // sort constant for SPA index extraction

	// hybridEfficiency is the marginal speedup of each additional thread:
	// intra-node memory-bandwidth contention keeps multithreaded speedup
	// below linear, which is why the hybrid variants trail at small
	// concurrencies (Figures 5 and 9) despite their communication edge.
	hybridEfficiency = 0.72

	// hybridGrainWords is the per-level work below which threading stops
	// paying off: with tiny frontiers (high-diameter graphs), fork/join
	// and merge overheads cancel the parallel gain — the reason the 2D
	// hybrid loses to flat MPI on uk-union (Figure 11).
	hybridGrainWords = 100_000

	// levelOverheadSeconds is the fixed per-iteration cost of a 2D BFS
	// level: sparse-vector bookkeeping, kernel setup, and straggler skew
	// absorbed at the level's four synchronization points. Negligible for
	// R-MAT's ~8 levels, substantial for a 140-iteration crawl traversal
	// (Figure 11's computation-dominated profile).
	levelOverheadSeconds = 2.0e-3

	// Direction-optimization constants. The heavy middle levels carry
	// dirOptHeavyShare of the edge volume; run bottom-up they examine
	// only dirOptPullFraction of it (the early exit stops each vertex's
	// in-edge scan at the first frontier parent — the ~10x reduction
	// the emulated runs measure on R-MAT middle levels). The remaining
	// light levels stay top-down at full cost.
	dirOptHeavyShare   = 0.9
	dirOptPullFraction = 0.1

	// Multi-source batching constants. The union frontier of a 64-wide
	// batch activates more vertices per level than any single search's
	// frontier, so the batch's shared scan covers batchFrontierSpread
	// times one search's edge volume — far below 64 times, which is the
	// whole amortization argument (sources drawn from one component
	// converge onto the same frontier within a few levels). Exchanged
	// frontier entries grow from (vertex, parent) pairs to (vertex,
	// mask, parent) triples: batchPayloadFactor on the word volume.
	batchFrontierSpread = 2.0
	batchPayloadFactor  = 1.5
)

// batchSpreadExp interpolates the spread between widths: spread(w) =
// w^batchSpreadExp, anchored at spread(64) = batchFrontierSpread with
// spread(1) = 1. Sublinear in w (the exponent is ~0.17), so the
// per-search scan share w^(exp-1) falls monotonically with width.
var batchSpreadExp = math.Log(batchFrontierSpread) / math.Log(64)

// dirOptScanFraction is the fraction of edge traffic a
// direction-optimized search keeps relative to top-down-only.
const dirOptScanFraction = (1 - dirOptHeavyShare) + dirOptHeavyShare*dirOptPullFraction

// bitmapPhase prices the dense frontier exchanges of the bottom-up
// levels: one n/64-word bitmap allgather over the p ranks per heavy
// level (conversion exchanges are folded into the same count). A
// batched search exchanges a full 64-bit mask plane — one word per
// vertex instead of one bit — so its volume is 64x, width-independent:
// the plane carries all 64 searches whether 2 or 64 are live.
func bitmapPhase(m *netmodel.Machine, wl Workload, p int, batched bool) float64 {
	words := (wl.N + 63) / 64
	if batched {
		words = wl.N
	}
	return float64(wl.HeavyLevels) * m.Allgatherv(int(p), words)
}

// bitmapPhasePartitioned prices the subcommunicator form of the same
// exchange on a pr×pc grid: per heavy level, an allgather of the
// row-block bitmap (n/(64·pr) words) over the pc row members followed
// by an allgather of the block-column bitmap (n/(64·pc) words) over the
// pr column members. Batched searches exchange mask planes (64x the
// words) like the world-wide form.
func bitmapPhasePartitioned(m *netmodel.Machine, wl Workload, pr, pc float64, batched bool) float64 {
	words := float64((wl.N + 63) / 64)
	if batched {
		words = float64(wl.N)
	}
	rowWords := int64(words/pr) + 1
	colWords := int64(words/pc) + 1
	return float64(wl.HeavyLevels) *
		(m.Allgatherv(int(pc), rowWords) + m.Allgatherv(int(pr), colWords))
}

// threadSpeedup returns the effective parallel speedup of t threads on a
// level whose parallelizable work is workPerLevel words.
func threadSpeedup(t, workPerLevel float64) float64 {
	s := 1 + (t-1)*hybridEfficiency
	if limit := workPerLevel / hybridGrainWords; limit < s {
		if limit < 1 {
			return 1
		}
		return limit
	}
	return s
}

// oneDFactors are the inefficiency multipliers distinguishing the tuned
// 1D code (all ones) from the reference comparator.
type oneDFactors struct {
	comp        float64
	extraPasses int64
	commVol     float64
	latency     float64
}

// predict1D models Algorithm 2 with the given inefficiency factors.
func predict1D(cfg Config, wl Workload, fac oneDFactors) Breakdown {
	m := cfg.Machine
	p64, t64 := cfg.ranksAndThreads()
	p, t := int64(p64), float64(t64)
	mhat := 2 * wl.M // symmetrized adjacency slots
	nloc := wl.N / p
	edgesPer := mhat / p
	remoteFrac := float64(p-1) / float64(p)
	remoteWords := int64(2 * float64(edgesPer) * remoteFrac) // (v, parent) pairs

	// Direction optimization (tuned 1D variants only: the comparator
	// codes are top-down by construction): the heavy levels run
	// bottom-up, shrinking the scanned and exchanged edge volume to
	// dirOptScanFraction, keeping the sparse all-to-all only on the
	// light levels, and paying the dense bitmap exchange instead.
	tuned := cfg.Algo == OneDFlat || cfg.Algo == OneDHybrid
	dirOpt := cfg.DirOpt && tuned
	eScan, rScan := float64(edgesPer), float64(remoteWords)
	a2aLevels := float64(wl.Levels)
	if dirOpt {
		eScan *= dirOptScanFraction
		rScan *= dirOptScanFraction
		if a2aLevels = float64(wl.Levels - wl.HeavyLevels); a2aLevels < 0 {
			a2aLevels = 0
		}
	}

	// Multi-source batching (tuned variants only; comparators have no
	// MS-BFS path): costs below are the whole batch's — scan and
	// bandwidth terms grow by the union-frontier spread and the
	// pair→triple payload, latency terms do not grow at all — and
	// amortize() divides the lot by the width at the end. Every batch
	// factor is exactly 1 at width 1, each applied per term, so the
	// single-source projection stays bit-identical to the unbatched
	// model.
	wB := 1.0
	if tuned {
		wB = cfg.batchWidth()
	}
	spread, payload := 1.0, 1.0
	if wB > 1 {
		spread, payload = math.Pow(wB, batchSpreadExp), batchPayloadFactor
	}

	// --- Local computation (Section 5.1) ---
	// m/p·βL adjacency stream, n/p·αL,n/p pointer+frontier accesses,
	// m/p·αL,n/p distance checks, plus buffer packing streams. The
	// per-vertex commit term scales with the width (each search writes
	// its own distances); the shared scan only with the spread.
	streams := eScan + rScan*(1+float64(fac.extraPasses))
	if t > 1 {
		streams += rScan // thread-buffer merge pass
	}
	comp := eScan*m.AlphaMem(nloc)*fac.comp*spread +
		float64(nloc)*(m.AlphaMem(nloc)+2*m.BetaMem)*wB +
		streams*m.BetaMem*spread +
		eScan*fac.comp/m.ComputeRate*spread
	comp /= threadSpeedup(t, eScan/float64(wl.Levels))
	if t > 1 {
		comp += float64(wl.Levels) * 3 * 4000 / m.ComputeRate // thread barriers
	}

	// --- Communication (Section 5.1) ---
	// Per-rank bandwidth divides by the ranks sharing each NIC, so the
	// bandwidth term reflects per-node volume over per-node bandwidth:
	// identical for flat and hybrid, while the latency term and the
	// torus-contention degradation shrink with the hybrid's smaller p.
	// One collective per level serves the whole batch, so the latency
	// terms carry no width factor; batching turns the frontier-empty
	// vote into two reductions (mask OR + active count).
	rpn := float64(cfg.Machine.CoresPerNode) / t
	a2aBW := rScan * rpn * torus(m, m.BetaA2A, float64(p)) * fac.commVol * spread * payload
	a2a := a2aLevels*float64(p)*m.AlphaNet*fac.latency + a2aBW
	allred := float64(wl.Levels) * m.Allreduce(int(p), 1)
	if wB > 1 {
		allred *= 2
	}

	phases := map[string]float64{"a2a": a2a, "allreduce": allred}
	if dirOpt {
		phases["bitmap"] = bitmapPhase(m, wl, int(p), wB > 1)
	}

	comp = amortize(comp, phases, wB)
	return finish(cfg, wl, comp, phases, [2]int{int(p), 1})
}

// predict2D models Algorithm 3 with the 2D vector distribution. The
// analytic grid uses real-valued pr = pc = sqrt(ranks): the emulated
// substrate needs integral factorizations, the closed-form model does
// not, and the paper's "closest square grid" is the same idealization.
func predict2D(cfg Config, wl Workload) Breakdown {
	m := cfg.Machine
	p64, t64 := cfg.ranksAndThreads()
	p, t := int64(p64), float64(t64)
	pr := math.Sqrt(float64(p64))
	pc := pr
	mhat := 2 * wl.M
	edgesPer := mhat / p
	rowBlock := int64(float64(wl.N) / pr) // SpMSV output range per block row
	nloc := wl.N / p

	// --- Fold volume: occupancy model of in-node aggregation ---
	// Per heavy level, a rank touches work = m̂/(p·H) edges landing in
	// n/pr output rows; distinct rows ≈ bins·(1-exp(-λ)).
	h := float64(wl.HeavyLevels)
	workPerLevel := float64(edgesPer) / h
	bins := float64(rowBlock)
	lambda := workPerLevel / bins
	distinctPerLevel := bins * (1 - math.Exp(-lambda))
	foldEntries := h * distinctPerLevel      // per rank, whole search
	foldWords := int64(2 * foldEntries)      // (index, parent) pairs
	expandWords := int64(float64(wl.N) / pc) // frontier replication along the column
	transposeWords := nloc                   // each frontier entry crosses once

	// Direction optimization: the heavy levels pull instead of pushing
	// (scan volume drops to dirOptScanFraction) and skip the transpose
	// and expand entirely — the dense bitmap exchange carries the
	// frontier — while the fold of discovered candidates remains in both
	// directions.
	dirOpt := cfg.DirOpt
	eScan := float64(edgesPer)
	tdLevels := float64(wl.Levels)
	tdShare := 1.0
	if dirOpt {
		eScan *= dirOptScanFraction
		if tdLevels = float64(wl.Levels - wl.HeavyLevels); tdLevels < 0 {
			tdLevels = 0
		}
		tdShare = 1 - dirOptHeavyShare
	}

	// Multi-source batching: as in predict1D, the terms below price the
	// whole batch — shared scans and folds grow by the spread, exchanged
	// entries by the pair→triple payload, the expand and transpose by the
	// bit-plane→mask-plane doubling — and amortize() divides by the width
	// at the end. The per-level fixed costs (latencies, level overhead,
	// allreduces) are where the division wins.
	wB := cfg.batchWidth()
	spread, payload := 1.0, 1.0
	if wB > 1 {
		spread, payload = math.Pow(wB, batchSpreadExp), batchPayloadFactor
	}

	// --- Local computation (Section 5.2) ---
	// m/p·βL + n/pc·αL(n/pc) frontier accesses + m/p·αL(n/pr) scatter;
	// the larger working sets (n/pr, n/pc vs n/p) are exactly why the 2D
	// algorithm computes slower (Section 5.2). Strip-split threading
	// shrinks the scatter working set by t. The frontier/vector
	// maintenance term scales with the width (per-search state); the
	// shared scatter, streams and fold terms only with the spread.
	stripWS := rowBlock / int64(t64)
	logOut := math.Log2(foldEntries/h + 2)
	comp := eScan*m.AlphaMem(stripWS)*spread + // scatter into SPA range / pull probes
		float64(nloc)*m.AlphaMem(expandWords)*wB + // frontier accesses, n/pc working set
		(eScan+2*float64(expandWords)*tdShare+2*float64(foldWords))*m.BetaMem*spread +
		eScan/m.ComputeRate*spread +
		foldEntries*spaExtractOps*logOut/m.ComputeRate*spread + // SPA index sort at extraction
		foldEntries*m.AlphaMem(nloc)*spread // fold-merge mask probes
	comp /= threadSpeedup(t, eScan/float64(wl.Levels))
	comp += float64(wl.Levels) * levelOverheadSeconds
	if t > 1 {
		comp += float64(wl.Levels) * 4000 / m.ComputeRate
	}

	// --- Communication (Section 5.2) ---
	// pr·αN + (n/pc)·βN,ag(pr) for the expand, pc·αN + fold·βN,a2a(pc)
	// for the fold, both over √p participants instead of p — the
	// communication advantage of the 2D decomposition. Bandwidth terms
	// carry the NIC-sharing factor like the 1D model. One collective per
	// level serves the whole batch (no width factor on latencies); the
	// batched expand and transpose move 64-bit mask planes instead of
	// bit planes (2x words, width-independent), and the frontier-empty
	// vote becomes two reductions.
	rpn := float64(cfg.Machine.CoresPerNode) / t
	planes := 1.0
	if wB > 1 {
		planes = 2
	}
	expandBW := float64(expandWords) * tdShare * rpn * torus(m, m.BetaAG, pr) * planes
	expand := tdLevels*pr*m.AlphaNet + expandBW
	foldBW := float64(foldWords) * rpn * torus(m, m.BetaA2A, pc) * spread * payload
	fold := float64(wl.Levels)*pc*m.AlphaNet + foldBW
	transpose := tdLevels*m.AlphaNet +
		float64(transposeWords)*tdShare*rpn*m.BetaP2P*planes
	allred := float64(wl.Levels) * m.Allreduce(int(p), 1)
	if wB > 1 {
		allred *= 2
	}

	phases := map[string]float64{
		"expand": expand, "fold": fold, "transpose": transpose, "allreduce": allred,
	}
	if dirOpt {
		if cfg.PartitionedBitmap {
			phases["bitmap"] = bitmapPhasePartitioned(m, wl, pr, pc, wB > 1)
		} else {
			phases["bitmap"] = bitmapPhase(m, wl, int(p), wB > 1)
		}
	}

	comp = amortize(comp, phases, wB)
	return finish(cfg, wl, comp, phases, [2]int{int(pr), int(pc)})
}

// predictPBGL models the PBGL comparator: 1D dataflow with fat serialized
// per-edge messages and property-map overheads.
func predictPBGL(cfg Config, wl Workload) Breakdown {
	m := cfg.Machine
	p64, _ := cfg.ranksAndThreads()
	p := int64(p64)
	mhat := 2 * wl.M
	nloc := wl.N / p
	edgesPer := mhat / p
	remoteEdges := int64(float64(edgesPer) * float64(p-1) / float64(p))
	msgWords := remoteEdges * pbglWordsPerEdge

	rpn := float64(m.CoresPerNode)
	comp := float64(edgesPer)*m.AlphaMem(nloc) +
		float64(nloc)*(m.AlphaMem(nloc)+2*m.BetaMem) +
		float64(msgWords)*m.BetaMem +
		float64(edgesPer)*pbglOpsPerEdge/m.ComputeRate
	a2a := float64(wl.Levels)*float64(p)*m.AlphaNet +
		float64(remoteEdges)/pbglBatchEdges*m.AlphaNet + // eager small messages
		float64(msgWords)*rpn*torus(m, m.BetaA2A, float64(p))
	allred := float64(wl.Levels) * m.Allreduce(int(p), 1)
	return finish(cfg, wl, comp, map[string]float64{"a2a": a2a, "allreduce": allred}, [2]int{int(p), 1})
}

// torus applies the participant-dependent bandwidth degradation without
// the machine's layout-dependent NIC factor (the model applies its own).
func torus(m *netmodel.Machine, beta float64, p float64) float64 {
	if p <= m.TorusRefP {
		return beta
	}
	return beta * math.Pow(p/m.TorusRefP, m.TorusExp)
}

func finish(cfg Config, wl Workload, comp float64, phases map[string]float64, grid [2]int) Breakdown {
	b := Breakdown{Comp: comp, Phase: phases, Grid: grid}
	// Sum phases in sorted key order: map iteration order is randomized,
	// and float addition is not associative, so an unordered sum would
	// make repeated Predict calls differ in the last bits — the
	// bit-stability contracts (DirOpt off, BatchWidth 1) pin exactness.
	keys := make([]string, 0, len(phases))
	for k := range phases {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b.Comm += phases[k]
	}
	b.Total = b.Comp + b.Comm
	b.GTEPS = float64(wl.M) / b.Total / 1e9
	ranks, _ := cfg.ranksAndThreads()
	b.Ranks = ranks
	return b
}

// batchWidth returns the clamped MS-BFS batch width (1 = single-source).
func (c Config) batchWidth() float64 {
	switch {
	case c.BatchWidth <= 1:
		return 1
	case c.BatchWidth > 64:
		return 64
	}
	return float64(c.BatchWidth)
}

// amortize converts batch-level costs into the per-search profile: every
// phase and the computation divide by the width. The latency terms were
// NOT multiplied by the width on the way in — one collective per level
// serves the whole batch — so this division is exactly where batching
// wins: fixed per-level costs (latencies, level overhead, allreduces)
// spread over w searches, while the bandwidth and scan terms only grew
// by spread (≈2) and payload (≈1.5) factors instead of w.
func amortize(comp float64, phases map[string]float64, w float64) float64 {
	if w <= 1 {
		return comp
	}
	for k := range phases {
		phases[k] /= w
	}
	return comp / w
}
