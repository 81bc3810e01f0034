package prng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference values from the public-domain splitmix64.c with seed 1234567.
	s := NewSplitMix64(1234567)
	got := []uint64{s.Next(), s.Next(), s.Next()}
	want := []uint64{6457827717110365317, 3203168211198807973, 9817491932198370423}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("splitmix64 output %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("step %d: %d != %d", i, av, bv)
		}
	}
}

func TestStreamsDiffer(t *testing.T) {
	a, b := NewStream(42, 0), NewStream(42, 1)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("independent streams agreed on %d of 100 outputs", same)
	}
}

func TestFloat64Range(t *testing.T) {
	g := New(7)
	for i := 0; i < 10000; i++ {
		f := g.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	g := New(11)
	var sum float64
	const iters = 100000
	for i := 0; i < iters; i++ {
		sum += g.Float64()
	}
	mean := sum / iters
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean of Float64 = %v, want ~0.5", mean)
	}
}

func TestUint64nBounds(t *testing.T) {
	g := New(3)
	for _, n := range []uint64{1, 2, 3, 10, 1 << 40} {
		for i := 0; i < 1000; i++ {
			if v := g.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d", n, v)
			}
		}
	}
}

func TestUint64nUniformSmall(t *testing.T) {
	g := New(5)
	counts := make([]int, 7)
	const iters = 70000
	for i := 0; i < iters; i++ {
		counts[g.Uint64n(7)]++
	}
	for v, c := range counts {
		if c < iters/7*8/10 || c > iters/7*12/10 {
			t.Errorf("value %d occurred %d times, want ~%d", v, c, iters/7)
		}
	}
}

func TestPermIsBijection(t *testing.T) {
	check := func(seed uint64, nRaw uint16) bool {
		n := int64(nRaw%500) + 1
		p := New(seed).Perm(n)
		if int64(len(p)) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMix64Injective(t *testing.T) {
	seen := make(map[uint64]uint64, 10000)
	for i := uint64(0); i < 10000; i++ {
		h := Mix64(i)
		if prev, ok := seen[h]; ok {
			t.Fatalf("Mix64 collision: %d and %d", prev, i)
		}
		seen[h] = i
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Int64n(0) did not panic")
		}
	}()
	New(1).Int64n(0)
}
