package bfs1d

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/prng"
)

// ownerLoop is the reference owner lookup: estimate v·p/n, then step
// one block at a time until v lies within [Start, End). Owner's closed
// form must agree with it everywhere.
func ownerLoop(pt Part1D, v int64) int {
	i := int(v * int64(pt.P) / pt.N)
	for v < pt.Start(i) {
		i--
	}
	for v >= pt.End(i) {
		i++
	}
	return i
}

func TestPart1D(t *testing.T) {
	pt := Part1D{N: 103, P: 8}
	if err := pt.Validate(); err != nil {
		t.Fatal(err)
	}
	var total int64
	for i := 0; i < 8; i++ {
		total += pt.Count(i)
	}
	if total != 103 {
		t.Errorf("blocks cover %d vertices", total)
	}
	for v := int64(0); v < 103; v++ {
		o := pt.Owner(v)
		if v < pt.Start(o) || v >= pt.End(o) {
			t.Fatalf("vertex %d: owner %d range [%d,%d)", v, o, pt.Start(o), pt.End(o))
		}
	}
	if (Part1D{N: 3, P: 8}).Validate() == nil {
		t.Error("more ranks than vertices accepted")
	}
}

func TestPart1DProperty(t *testing.T) {
	check := func(seed uint64) bool {
		rng := prng.New(seed)
		pt := Part1D{N: rng.Int64n(10000) + 1, P: rng.Intn(64) + 1}
		if int64(pt.P) > pt.N {
			pt.P = int(pt.N)
		}
		// Blocks are contiguous, non-overlapping, and sizes differ by <= 1.
		var mn, mx int64 = 1 << 62, 0
		for i := 0; i < pt.P; i++ {
			c := pt.Count(i)
			if c < mn {
				mn = c
			}
			if c > mx {
				mx = c
			}
			if i > 0 && pt.Start(i) != pt.End(i-1) {
				return false
			}
		}
		return mx-mn <= 1 && pt.Start(0) == 0 && pt.End(pt.P-1) == pt.N
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestOwnerMatchesLoop checks the closed-form Owner against the
// correction loop for every vertex of every partition with n ≤ 700 and
// p ≤ min(n, 70).
func TestOwnerMatchesLoop(t *testing.T) {
	for n := int64(1); n <= 700; n++ {
		for p := 1; p <= min(int(n), 70); p++ {
			pt := Part1D{N: n, P: p}
			for v := int64(0); v < n; v++ {
				if got, want := pt.Owner(v), ownerLoop(pt, v); got != want {
					t.Fatalf("n=%d p=%d: Owner(%d) = %d, want %d", n, p, v, got, want)
				}
			}
		}
	}
}

// TestOwnerBlockEdges checks the first and last vertex of every block
// at sizes up to past 2^40 and rank counts up to the paper's 40,000
// Hopper cores, where v·p no longer fits 32 bits.
func TestOwnerBlockEdges(t *testing.T) {
	for _, n := range []int64{1 << 16, 1 << 32, 1<<40 + 7} {
		for _, p := range []int{16, 17, 1000, 40000} {
			pt := Part1D{N: n, P: p}
			if err := pt.Validate(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < p; i++ {
				for _, v := range []int64{pt.Start(i), pt.End(i) - 1} {
					if got, want := pt.Owner(v), ownerLoop(pt, v); got != i || want != i {
						t.Fatalf("n=%d p=%d: Owner(%d) = %d, loop %d, want %d", n, p, v, got, want, i)
					}
				}
			}
		}
	}
}

// TestPart1DValidateProduct checks that Validate refuses a partition
// whose n·p reaches 2^63, past which Owner's product would wrap.
func TestPart1DValidateProduct(t *testing.T) {
	for _, tc := range []struct {
		pt Part1D
		ok bool
	}{
		{Part1D{N: 1 << 62, P: 4}, false},
		{Part1D{N: 1 << 61, P: 4}, false},
		{Part1D{N: math.MaxInt64, P: 2}, false},
		{Part1D{N: 1<<61 - 1, P: 4}, true},
		{Part1D{N: math.MaxInt64, P: 1}, true},
		// The paper's largest Hopper run: 2^32 vertices on 40,000 cores.
		{Part1D{N: 1 << 32, P: 40000}, true},
	} {
		if err := tc.pt.Validate(); (err == nil) != tc.ok {
			t.Errorf("Validate(n=%d, p=%d) = %v, want ok=%v", tc.pt.N, tc.pt.P, err, tc.ok)
		}
	}
}

// FuzzPart1DOwner checks that Owner lands every vertex of any valid
// partition inside its owner's [Start, End).
func FuzzPart1DOwner(f *testing.F) {
	f.Add(int64(103), 8, int64(0))
	f.Add(int64(1<<32), 40000, int64(1<<32-1))
	f.Add(int64(1<<40+7), 17, int64(1<<39))
	f.Add(int64(math.MaxInt64/3), 3, int64(math.MaxInt64/3-1))
	f.Fuzz(func(t *testing.T, n int64, p int, v int64) {
		pt := Part1D{N: n, P: p}
		if pt.Validate() != nil {
			return
		}
		if v %= n; v < 0 {
			v += n
		}
		if o := pt.Owner(v); o < 0 || o >= p || v < pt.Start(o) || v >= pt.End(o) {
			t.Fatalf("n=%d p=%d: Owner(%d) = %d, outside its block", n, p, v, o)
		}
	})
}
