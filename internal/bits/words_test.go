package bits

import "testing"

func TestGrownWords(t *testing.T) {
	s := []uint64{1, 2, 3}
	if got := GrownWords(s, 3); &got[0] != &s[0] {
		t.Fatal("same-size GrownWords reallocated")
	} else if got[0]|got[1]|got[2] != 0 {
		t.Fatal("GrownWords did not clear")
	}
	if got := GrownWords(s, 5); len(got) != 5 {
		t.Fatalf("GrownWords(5) len = %d", len(got))
	}
	if got := GrownWords(nil, 0); got != nil && len(got) != 0 {
		t.Fatalf("GrownWords(nil,0) len = %d", len(got))
	}
}

// FuzzWordOps cross-checks OrWords against per-word scalar identities on
// fuzzer-chosen word values.
func FuzzWordOps(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0xffffffffffffffff))
	f.Add(uint64(0xdeadbeef), uint64(0xbeefdead), uint64(1))
	f.Fuzz(func(t *testing.T, a, b, c uint64) {
		dst := []uint64{a, b}
		src := []uint64{c, a}
		OrWords(dst, src)
		if dst[0] != a|c || dst[1] != b|a {
			t.Fatalf("OrWords = %x %x", dst[0], dst[1])
		}
	})
}
