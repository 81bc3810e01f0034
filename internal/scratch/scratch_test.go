package scratch

import "testing"

func TestGrownReusesCapacity(t *testing.T) {
	s := make([]int64, 4, 16)
	g := Grown(s, 10)
	if len(g) != 10 {
		t.Fatalf("len %d, want 10", len(g))
	}
	if &g[0] != &s[0] {
		t.Error("Grown reallocated although the capacity sufficed")
	}
	if shrunk := Grown(g, 2); len(shrunk) != 2 || &shrunk[0] != &s[0] {
		t.Error("shrinking did not reuse the backing array")
	}
	big := Grown(s, 17)
	if len(big) != 17 {
		t.Fatalf("len %d, want 17", len(big))
	}
	if &big[0] == &s[0] {
		t.Error("Grown past capacity kept the old backing array")
	}
	if got := Grown(nil, 0); len(got) != 0 {
		t.Errorf("Grown(nil, 0) has length %d", len(got))
	}
}

func TestRanksPreservesEntries(t *testing.T) {
	type arena struct{ buf []int64 }
	s := []arena{{buf: []int64{1}}, {buf: []int64{2, 3}}}
	grown := Ranks(s, 4)
	if len(grown) != 4 {
		t.Fatalf("len %d, want 4", len(grown))
	}
	for i := range s {
		if &grown[i].buf[0] != &s[i].buf[0] {
			t.Errorf("entry %d lost its buffer", i)
		}
	}
	if grown[2].buf != nil || grown[3].buf != nil {
		t.Error("new entries are not zero values")
	}
	// Already large enough: returned as is, even when asked for fewer.
	if same := Ranks(grown, 3); len(same) != 4 || &same[0] != &grown[0] {
		t.Error("Ranks reallocated a slice that was already large enough")
	}
}
