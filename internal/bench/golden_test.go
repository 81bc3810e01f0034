package bench

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
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
