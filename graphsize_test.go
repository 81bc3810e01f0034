package pbfs

import (
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/edgefile"
	"repro/internal/graph"
)

// TestConstructorsRefuseOversizedGraphs: every facade constructor
// refuses a graph with more than graph.MaxVerts vertices before it
// generates, reads or allocates anything, and says which count it
// refused. None of these calls may reach a generator or BuildCSR: at
// these sizes either would ask for tens of GiB.
func TestConstructorsRefuseOversizedGraphs(t *testing.T) {
	const n = graph.MaxVerts + 1
	nStr := strconv.FormatInt(n, 10)
	file := filepath.Join(t.TempDir(), "huge.edges")
	if err := edgefile.WriteFile(file, &graph.EdgeList{NumVerts: n, Edges: []graph.Edge{{U: 0, V: n - 1}}}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		make func() (*Graph, error)
		want string
	}{
		{"rmat scale 33", func() (*Graph, error) { return NewRMATGraph(33, 16, 1) }, "scale 33"},
		{"rmat scale 62", func() (*Graph, error) { return NewRMATGraph(62, 1, 1) }, "scale 62"},
		{"web crawl", func() (*Graph, error) { return NewWebCrawlGraph(n, 1) }, nStr},
		{"undirected edges", func() (*Graph, error) { return NewGraphFromEdges(n, [][2]int64{{0, n - 1}}) }, nStr},
		{"directed edges", func() (*Graph, error) { return NewDirectedGraph(n, [][2]int64{{0, n - 1}}) }, nStr},
		{"negative count", func() (*Graph, error) { return NewGraphFromEdges(-2, nil) }, "-2"},
		{"edge file", func() (*Graph, error) { return NewGraphFromFile(file) }, nStr},
	} {
		g, err := tc.make()
		if err == nil || g != nil {
			t.Errorf("%s: accepted (%v)", tc.name, err)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.want)
		}
	}
}

// TestNeighborsIsACopy: the adjacency Neighbors returns belongs to the
// caller, so writing to it leaves the graph as it was.
func TestNeighborsIsACopy(t *testing.T) {
	g, err := NewGraphFromEdges(4, [][2]int64{{0, 1}, {0, 2}, {0, 3}})
	if err != nil {
		t.Fatal(err)
	}
	adj := g.Neighbors(0)
	if len(adj) != 3 || adj[0] != 1 || adj[1] != 2 || adj[2] != 3 {
		t.Fatalf("Neighbors(0) = %v, want [1 2 3]", adj)
	}
	for i := range adj {
		adj[i] = -1
	}
	if again := g.Neighbors(0); len(again) != 3 || again[0] != 1 || again[1] != 2 || again[2] != 3 {
		t.Errorf("after writing to a returned slice Neighbors(0) = %v, want [1 2 3]", again)
	}
	if res := g.SerialBFS(0); res.Dist[3] != 1 {
		t.Errorf("after writing to a returned slice dist[3] = %d, want 1", res.Dist[3])
	}
}
