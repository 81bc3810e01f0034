// Package edgefile reads and writes the repository's binary edge-list
// format, so large generated graphs can be produced once (cmd/graphgen)
// and traversed many times.
//
// Layout, little-endian: the 8-byte magic "PBFSEDG1", an int64 vertex
// count, an int64 edge count, then (u, v) int64 pairs. Files store
// directed edges; consumers symmetrize as the Graph 500 benchmark does.
package edgefile

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"repro/internal/graph"
)

// Magic identifies an edge file.
const Magic = "PBFSEDG1"

// maxPrealloc caps the edges Read reserves from the header's count
// before any edge is read (16 MiB of graph.Edge).
const maxPrealloc = 1 << 20

// Write streams an edge list to w.
func Write(w io.Writer, el *graph.EdgeList) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(Magic); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, el.NumVerts); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, int64(len(el.Edges))); err != nil {
		return err
	}
	buf := make([]byte, 16)
	for _, e := range el.Edges {
		binary.LittleEndian.PutUint64(buf[0:], uint64(e.U))
		binary.LittleEndian.PutUint64(buf[8:], uint64(e.V))
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteFile writes an edge list to the named file.
func WriteFile(path string, el *graph.EdgeList) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, el); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Read parses an edge list from r, validating the header and every edge
// against the declared vertex count.
func Read(r io.Reader) (*graph.EdgeList, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	n, m, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	// The header is untrusted: preallocate at most maxPrealloc edges and
	// let append grow the slice, so a lying edge count ends in the
	// truncation error below rather than a huge (or impossible) make.
	el := &graph.EdgeList{NumVerts: n, Edges: make([]graph.Edge, 0, min(m, maxPrealloc))}
	buf := make([]byte, 16)
	for i := int64(0); i < m; i++ {
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, fmt.Errorf("edgefile: truncated at edge %d of %d: %w", i, m, err)
		}
		u := int64(binary.LittleEndian.Uint64(buf[0:]))
		v := int64(binary.LittleEndian.Uint64(buf[8:]))
		if u < 0 || u >= n || v < 0 || v >= n {
			return nil, fmt.Errorf("edgefile: edge %d (%d,%d) out of range [0,%d)", i, u, v, n)
		}
		el.Edges = append(el.Edges, graph.Edge{U: u, V: v})
	}
	// Trailing garbage indicates a corrupt or mismatched file.
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("edgefile: trailing data after %d edges", m)
	}
	return el, nil
}

// readHeader parses and checks the magic and the two counts.
func readHeader(r io.Reader) (n, m int64, err error) {
	head := make([]byte, len(Magic))
	if _, err := io.ReadFull(r, head); err != nil {
		return 0, 0, fmt.Errorf("edgefile: reading magic: %w", err)
	}
	if string(head) != Magic {
		return 0, 0, fmt.Errorf("edgefile: bad magic %q", head)
	}
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return 0, 0, fmt.Errorf("edgefile: reading vertex count: %w", err)
	}
	if err := binary.Read(r, binary.LittleEndian, &m); err != nil {
		return 0, 0, fmt.Errorf("edgefile: reading edge count: %w", err)
	}
	if n < 0 || m < 0 {
		return 0, 0, fmt.Errorf("edgefile: negative header counts n=%d m=%d", n, m)
	}
	return n, m, nil
}

// ReadHeader returns the vertex and edge counts the named file
// declares, reading nothing past its header, so a caller can refuse a
// graph before reading its edges.
func ReadHeader(path string) (n, m int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	if n, m, err = readHeader(f); err != nil {
		return 0, 0, fmt.Errorf("%s: %w", path, err)
	}
	return n, m, nil
}

// ReadFile reads an edge list from the named file.
func ReadFile(path string) (*graph.EdgeList, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	el, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return el, nil
}
