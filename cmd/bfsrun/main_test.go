package main

import "testing"

// TestParseGrid: a -grid value must be two positive integers whose
// product fits an int.
func TestParseGrid(t *testing.T) {
	for _, c := range []struct {
		in     string
		pr, pc int
		ok     bool
	}{
		{"", 0, 0, true},
		{"2x3", 2, 3, true},
		{"4X4", 4, 4, true},
		{"0x3", 0, 0, false},
		{"2x", 0, 0, false},
		{"4294967296x4294967296", 0, 0, false},
	} {
		pr, pc, err := parseGrid(c.in)
		if (err == nil) != c.ok || pr != c.pr || pc != c.pc {
			t.Errorf("parseGrid(%q) = %d, %d, %v", c.in, pr, pc, err)
		}
	}
}
