package scratch

import "testing"

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
