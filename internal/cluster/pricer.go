package cluster

// Pricer prices local computation in simulated seconds, following the
// paper's Section 5 memory-reference model: random references into a
// working set (αL,x terms), unit-stride streamed words (βL), and
// instruction-bound operations. netmodel.Machine is the canonical
// implementation.
type Pricer interface {
	MemCost(randomRefs, wsWords, streamWords, ops int64) float64
}

// ChargeMem prices a computation with p and advances the rank clock; a
// nil pricer charges nothing.
func (r *Rank) ChargeMem(p Pricer, randomRefs, wsWords, streamWords, ops int64) {
	if p == nil {
		return
	}
	r.Charge(p.MemCost(randomRefs, wsWords, streamWords, ops))
}
