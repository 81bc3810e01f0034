package bench

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	pbfs "repro"
)

// TestEmulatedExperimentsGolden pins the printed bytes of the emulated
// experiments that together run all six algorithms on both generators
// (R-MAT and the web crawl) and Figure 4's diagonal-vector path. Every
// figure they print derives from the simulated clock, so the output is
// identical across runs and host core counts; any change to how an
// experiment is driven shows here as a byte diff.
func TestEmulatedExperimentsGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(io.Writer) error
	}{
		{"refcomp", func(w io.Writer) error { return ReferenceComparison(w, true) }},
		{"table2", func(w io.Writer) error { return Table2(w, true) }},
		{"fig10", func(w io.Writer) error { return Figure10(w, true) }},
		{"fig11", func(w io.Writer) error { return Figure11(w, true, 1<<11) }},
		{"fig4", func(w io.Writer) error { return Figure4(w, 10) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := tc.run(&buf); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", tc.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%s output differs from testdata/%s.golden\n--- got ---\n%s--- want ---\n%s",
					tc.name, tc.name, buf.Bytes(), want)
			}
		})
	}
}

// projectedOutput is the byte stream TestProjectedExperimentsGolden
// pins: every experiment's projected-only output except fig3 (wall-clock
// kernel timings) and fig4 (its projected mode runs an emulation that
// TestEmulatedExperimentsGolden already pins), then the exact float bits
// of the facade's two projections for every algorithm.
func projectedOutput() ([]byte, error) {
	var buf bytes.Buffer
	for _, e := range Experiments() {
		if e.Name == "fig3" || e.Name == "fig4" {
			continue
		}
		if err := e.Run(&buf, false); err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name, err)
		}
	}
	for a := pbfs.OneDFlat; a <= pbfs.PBGL; a++ {
		rmat, err := pbfs.ProjectRMAT("hopper", 40000, a, 32, 16)
		if err != nil {
			return nil, err
		}
		crawl, err := pbfs.ProjectWebCrawl("hopper", 4000, a)
		if err != nil {
			return nil, err
		}
		for _, p := range []struct {
			name string
			p    *pbfs.Projection
		}{{"rmat", rmat}, {"crawl", crawl}} {
			fmt.Fprintf(&buf, "%s %v total=%016x comp=%016x comm=%016x\n", p.name, a,
				math.Float64bits(p.p.TotalTime), math.Float64bits(p.p.ComputeTime),
				math.Float64bits(p.p.CommTime))
		}
	}
	return buf.Bytes(), nil
}

// TestProjectedExperimentsGolden pins the projected tables and figures
// and the facade's projections bit for bit, so a refactor of the model
// or the projection entry points cannot move a published number.
func TestProjectedExperimentsGolden(t *testing.T) {
	got, err := projectedOutput()
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "projected.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("projected output differs from testdata/projected.golden\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
