package edgefile

import (
	"bytes"
	"encoding/binary"
	"path/filepath"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/prng"
	"repro/internal/rmat"
)

// roundTripGraph is TestRoundTrip's input, also FuzzRead's main seed.
func roundTripGraph(tb testing.TB) (*graph.EdgeList, []byte) {
	tb.Helper()
	el, err := rmat.Graph500(8, 8, 0xe1).Generate()
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, el); err != nil {
		tb.Fatal(err)
	}
	return el, buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	el, data := roundTripGraph(t)
	got, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumVerts != el.NumVerts || len(got.Edges) != len(el.Edges) {
		t.Fatalf("header mismatch: %d/%d vs %d/%d", got.NumVerts, len(got.Edges), el.NumVerts, len(el.Edges))
	}
	for i := range got.Edges {
		if got.Edges[i] != el.Edges[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
}

func TestRoundTripFile(t *testing.T) {
	el := &graph.EdgeList{NumVerts: 5, Edges: []graph.Edge{{U: 0, V: 4}, {U: 3, V: 2}}}
	path := filepath.Join(t.TempDir(), "g.edges")
	if err := WriteFile(path, el); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumVerts != 5 || len(got.Edges) != 2 || got.Edges[1] != (graph.Edge{U: 3, V: 2}) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestReadRejectsCorruption(t *testing.T) {
	el := &graph.EdgeList{NumVerts: 3, Edges: []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}}
	var buf bytes.Buffer
	if err := Write(&buf, el); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"bad magic", func(b []byte) []byte { c := clone(b); c[0] ^= 0xff; return c }},
		{"truncated header", func(b []byte) []byte { return clone(b)[:12] }},
		{"truncated edges", func(b []byte) []byte { return clone(b)[:len(b)-8] }},
		{"trailing garbage", func(b []byte) []byte { return append(clone(b), 0xaa) }},
		{"out-of-range edge", func(b []byte) []byte {
			c := clone(b)
			// Overwrite the first edge's target with a huge value.
			for i := 0; i < 8; i++ {
				c[len(Magic)+16+8+i] = 0x7f
			}
			return c
		}},
		{"negative counts", func(b []byte) []byte {
			c := clone(b)
			c[len(Magic)+7] = 0x80 // sign bit of the vertex count
			return c
		}},
		// A header alone claiming 1<<60 edges: an error, not a panic
		// preallocating the claimed count.
		{"lying edge count", func([]byte) []byte { return header(4, 1<<60) }},
	}
	for _, tc := range cases {
		if _, err := Read(bytes.NewReader(tc.mutate(good))); err == nil {
			t.Errorf("%s: corruption not detected", tc.name)
		}
	}
}

func clone(b []byte) []byte { return append([]byte(nil), b...) }

// header is a bare file header: magic, vertex count n, edge count m.
func header(n, m int64) []byte {
	b := []byte(Magic)
	b = binary.LittleEndian.AppendUint64(b, uint64(n))
	return binary.LittleEndian.AppendUint64(b, uint64(m))
}

// FuzzRead: Read never panics, and whatever it accepts writes back to
// the identical bytes.
func FuzzRead(f *testing.F) {
	_, data := roundTripGraph(f)
	f.Add(data)
	f.Add(header(4, 1<<60))
	f.Add(header(3, 0))
	f.Add([]byte(Magic))
	f.Fuzz(func(t *testing.T, data []byte) {
		el, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, el); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("accepted %d bytes but rewrote %d different bytes", len(data), buf.Len())
		}
	})
}

// Property: arbitrary edge lists survive a round trip bit-exactly.
func TestRoundTripProperty(t *testing.T) {
	check := func(seed uint64) bool {
		rng := prng.New(seed)
		n := rng.Int64n(1000) + 1
		el := &graph.EdgeList{NumVerts: n}
		for i := 0; i < rng.Intn(500); i++ {
			el.Edges = append(el.Edges, graph.Edge{U: rng.Int64n(n), V: rng.Int64n(n)})
		}
		var buf bytes.Buffer
		if err := Write(&buf, el); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		if got.NumVerts != el.NumVerts || len(got.Edges) != len(el.Edges) {
			return false
		}
		for i := range got.Edges {
			if got.Edges[i] != el.Edges[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
