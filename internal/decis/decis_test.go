package decis

import (
	"testing"

	"repro/internal/dirheur"
)

func TestDirChoiceRoundTrip(t *testing.T) {
	for _, d := range []dirheur.Direction{dirheur.TopDown, dirheur.BottomUp} {
		got, err := ParseDir(DirChoice(d))
		if err != nil {
			t.Fatalf("ParseDir(DirChoice(%v)): %v", d, err)
		}
		if got != d {
			t.Errorf("ParseDir(DirChoice(%v)) = %v", d, got)
		}
	}
}

func TestParseDirRejectsBadInput(t *testing.T) {
	for _, s := range []string{"", "topdown", "Top-Down", "bottom-up ", "sideways", "1"} {
		if d, err := ParseDir(s); err == nil {
			t.Errorf("ParseDir(%q) = %v, want an error", s, d)
		}
	}
}

func TestGridChoiceRoundTrip(t *testing.T) {
	for _, shape := range [][2]int{{1, 1}, {2, 2}, {1, 16}, {16, 1}, {3, 7}, {128, 64}} {
		s := GridChoice(shape[0], shape[1])
		pr, pc, err := ParseGrid(s)
		if err != nil {
			t.Fatalf("ParseGrid(%q): %v", s, err)
		}
		if pr != shape[0] || pc != shape[1] {
			t.Errorf("ParseGrid(%q) = %dx%d, want %dx%d", s, pr, pc, shape[0], shape[1])
		}
	}
}

func TestParseGridRejectsBadInput(t *testing.T) {
	for _, s := range []string{
		"", "4", "x", "2x", "x3", "0x4", "4x0", "-1x4", "2x-3", "2X3", "2x3x4", "axb", " 2x3",
	} {
		if pr, pc, err := ParseGrid(s); err == nil {
			t.Errorf("ParseGrid(%q) = %dx%d, want an error", s, pr, pc)
		}
	}
}

func TestForcedDir(t *testing.T) {
	var nilPlan *Plan
	if d, ok := nilPlan.ForcedDir(3); ok {
		t.Errorf("nil plan forced level 3 to %v", d)
	}
	if d, ok := (&Plan{}).ForcedDir(3); ok {
		t.Errorf("empty plan forced level 3 to %v", d)
	}
	p := &Plan{Dir: map[int64]dirheur.Direction{3: dirheur.BottomUp}}
	if d, ok := p.ForcedDir(3); !ok || d != dirheur.BottomUp {
		t.Errorf("ForcedDir(3) = %v, %v; want bottom-up, true", d, ok)
	}
	if d, ok := p.ForcedDir(4); ok {
		t.Errorf("level absent from the plan forced to %v", d)
	}
}
