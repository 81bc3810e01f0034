package netmodel

import "testing"

func TestProfilesComplete(t *testing.T) {
	for name, m := range Profiles() {
		if m.Name == "" || m.AlphaNet <= 0 || m.BetaA2A <= 0 || m.ComputeRate <= 0 {
			t.Errorf("%s: incomplete profile %+v", name, m)
		}
		if m.L1Words >= m.L2Words || m.L2Words >= m.L3Words {
			t.Errorf("%s: cache sizes not increasing", name)
		}
		if m.AlphaL1 >= m.AlphaL2 || m.AlphaL2 >= m.AlphaL3 || m.AlphaL3 >= m.AlphaDRAM {
			t.Errorf("%s: cache latencies not increasing", name)
		}
	}
}

func TestTorusBandwidthDegrades(t *testing.T) {
	m := Franklin()
	small := m.Alltoallv(64, 1<<20, 1<<20)
	big := m.Alltoallv(4096, 1<<20, 1<<20)
	if big <= small {
		t.Errorf("all-to-all at p=4096 (%v) not slower than p=64 (%v)", big, small)
	}
	// The degradation should follow p^(1/3): 4096/64 = 64, 64^(1/3) = 4.
	ratio := (big - 4096*m.AlphaNet) / (small - 64*m.AlphaNet)
	if ratio < 3.5 || ratio > 4.5 {
		t.Errorf("bandwidth term ratio = %v, want ~4 for p^1/3 scaling", ratio)
	}
}

func TestTrivialGroupsFree(t *testing.T) {
	m := Hopper()
	if m.Alltoallv(1, 100, 100) != 0 || m.Allgatherv(1, 100) != 0 ||
		m.Allreduce(1, 1) != 0 || m.Bcast(1, 5) != 0 {
		t.Error("single-participant collectives should cost nothing")
	}
}

func TestAlphaMemSteps(t *testing.T) {
	m := Franklin()
	if m.AlphaMem(100) != m.AlphaL1 {
		t.Error("small working set not at L1 latency")
	}
	if m.AlphaMem(m.L2Words) != m.AlphaL2 {
		t.Error("L2-sized working set not at L2 latency")
	}
	if m.AlphaMem(1<<30) != m.AlphaDRAM {
		t.Error("huge working set not at DRAM latency")
	}
}

func TestMemCostComposition(t *testing.T) {
	m := Carver()
	got := m.MemCost(10, 100, 1000, 0)
	want := 10*m.AlphaL1 + 1000*m.BetaMem
	if diff := got - want; diff > 1e-15 || diff < -1e-15 {
		t.Errorf("MemCost = %v, want %v", got, want)
	}
	if m.MemCost(0, 0, 0, 1000) <= 0 {
		t.Error("instruction-only cost is zero")
	}
}

func TestHopperVsFranklinStructure(t *testing.T) {
	f, h := Franklin(), Hopper()
	// Hopper computes faster...
	if h.ComputeRate <= f.ComputeRate {
		t.Error("Hopper should out-compute Franklin")
	}
	// ...but under flat MPI (all cores of a node as ranks sharing the
	// NIC) its per-rank all-to-all bandwidth at scale is worse, the
	// structural fact behind the Figure 5 vs Figure 7 ranking flip.
	hf := h.WithRanksPerNode(h.CoresPerNode)
	ff := f.WithRanksPerNode(f.CoresPerNode)
	if hf.Alltoallv(10008, 1<<20, 1<<20) <= ff.Alltoallv(10008, 1<<20, 1<<20) {
		t.Error("flat-MPI Hopper large-p all-to-all should cost more than Franklin's")
	}
}

func TestLatencyVsBandwidthRegimes(t *testing.T) {
	m := Franklin()
	// Tiny messages: latency dominates, cost ~ p*alpha.
	tiny := m.Alltoallv(1024, 8, 8)
	if tiny < 1024*m.AlphaNet || tiny > 1024*m.AlphaNet*1.1 {
		t.Errorf("tiny message cost %v not latency-dominated", tiny)
	}
	// Huge messages: bandwidth dominates.
	huge := m.Alltoallv(1024, 1<<28, 1<<28)
	if huge < 10*1024*m.AlphaNet {
		t.Errorf("huge message cost %v not bandwidth-dominated", huge)
	}
}
