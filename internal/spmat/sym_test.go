package spmat

import (
	"testing"
	"testing/quick"

	"repro/internal/prng"
	"repro/internal/spvec"
)

// symmetrize mirrors triples across the diagonal and drops self-loops.
func symmetrize(ts []Triple) []Triple {
	out := make([]Triple, 0, 2*len(ts))
	for _, t := range ts {
		if t.Row == t.Col {
			continue
		}
		out = append(out, t, Triple{Row: t.Col, Col: t.Row})
	}
	return out
}

func TestSymMatchesFull(t *testing.T) {
	ts := []Triple{{0, 1}, {1, 3}, {2, 5}, {4, 0}, {3, 2}}
	full, err := NewDCSC(6, 6, symmetrize(ts))
	if err != nil {
		t.Fatal(err)
	}
	sym, err := NewSym(6, symmetrize(ts))
	if err != nil {
		t.Fatal(err)
	}
	if sym.NNZ() != full.NNZ()/2 {
		t.Errorf("triangle nnz = %d, full = %d", sym.NNZ(), full.NNZ())
	}
	f := &spvec.Vec{}
	f.Append(0, 0)
	f.Append(3, 3)
	want := full.SpMSV(&spvec.Vec{}, f, SpMSVOpts{Kernel: KernelSPA})
	got := sym.SpMSV(&spvec.Vec{}, f, SpMSVOpts{Kernel: KernelSPA})
	if got.NNZ() != want.NNZ() {
		t.Fatalf("nnz %d vs %d (%v vs %v)", got.NNZ(), want.NNZ(), got.Ind, want.Ind)
	}
	for i := range got.Ind {
		if got.Ind[i] != want.Ind[i] || got.Val[i] != want.Val[i] {
			t.Fatalf("entry %d: (%d,%d) vs (%d,%d)", i, got.Ind[i], got.Val[i], want.Ind[i], want.Val[i])
		}
	}
}

func TestSymDropsDiagonal(t *testing.T) {
	sym, err := NewSym(4, []Triple{{1, 1}, {2, 2}, {0, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if sym.NNZ() != 1 {
		t.Errorf("NNZ = %d, want 1 (diagonal dropped)", sym.NNZ())
	}
}

func TestSymHalvesStorage(t *testing.T) {
	rng := prng.New(0x7)
	var ts []Triple
	for i := 0; i < 4000; i++ {
		r, c := rng.Int64n(2000), rng.Int64n(2000)
		if r != c {
			ts = append(ts, Triple{Row: r, Col: c})
		}
	}
	fullTs := symmetrize(ts)
	full, err := NewDCSC(2000, 2000, append([]Triple(nil), fullTs...))
	if err != nil {
		t.Fatal(err)
	}
	sym, err := NewSym(2000, fullTs)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(sym.StorageBytes()) / float64(full.StorageBytes())
	// The uint32 row ids halve; the int64 JC and CP barely shrink, since
	// almost every column keeps an entry above the diagonal.
	if ratio > 0.67 {
		t.Errorf("triangle storage is %.0f%% of full, want ~60-65%%", 100*ratio)
	}
}

// Property: triangle SpMSV equals full-matrix SpMSV for all kernels on
// random symmetric matrices and frontiers.
func TestSymProperty(t *testing.T) {
	check := func(seed uint64) bool {
		rng := prng.New(seed)
		dim := int64(rng.Intn(80) + 2)
		var ts []Triple
		for i := 0; i < rng.Intn(200); i++ {
			ts = append(ts, Triple{Row: rng.Int64n(dim), Col: rng.Int64n(dim)})
		}
		fullTs := symmetrize(ts)
		full, err := NewDCSC(dim, dim, append([]Triple(nil), fullTs...))
		if err != nil {
			return false
		}
		sym, err := NewSym(dim, fullTs)
		if err != nil {
			return false
		}
		f := randomFrontier(rng, dim, rng.Intn(20))
		for _, kernel := range []Kernel{KernelSPA, KernelHeap, KernelAuto} {
			want := full.SpMSV(&spvec.Vec{}, f, SpMSVOpts{Kernel: kernel})
			got := sym.SpMSV(&spvec.Vec{}, f, SpMSVOpts{Kernel: kernel})
			if got.NNZ() != want.NNZ() {
				return false
			}
			for i := range got.Ind {
				if got.Ind[i] != want.Ind[i] || got.Val[i] != want.Val[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSymWorkPositive(t *testing.T) {
	sym, err := NewSym(8, []Triple{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	f := &spvec.Vec{}
	f.Append(1, 1)
	if sym.Work(f) <= 0 {
		t.Error("Work should count the transposed scan")
	}
}
