package main

import pbfs "repro"

// FNV-1a over 64-bit words rather than bytes: one multiply per vertex
// keeps the checksum of a 2^16-entry distance vector far below the
// cost of the search that produced it.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvWord(h uint64, w int64) uint64 { return (h ^ uint64(w)) * fnvPrime }

// checksum folds a search's answer — every distance, then the level
// count — into one word.
func checksum(dist []int64, levels int64) uint64 {
	h := uint64(fnvOffset)
	for _, d := range dist {
		h = fnvWord(h, d)
	}
	return fnvWord(h, levels)
}

// answer is one BFS the program under test returned during a window:
// which op it belonged to and the checksum of what came back.
type answer struct {
	op     int
	graph  int
	source int64
	sum    uint64
}

// verifier checks answers against the serial oracle (internal/serial
// through Graph.SerialBFS). Oracle searches run lazily, once per
// distinct (graph, source), and always outside a timed window.
type verifier struct {
	graphs []*pbfs.Graph
	want   []map[int64]uint64
}

func newVerifier(graphs ...*pbfs.Graph) *verifier {
	v := &verifier{graphs: graphs}
	for range graphs {
		v.want = append(v.want, map[int64]uint64{})
	}
	return v
}

func (v *verifier) expected(graph int, source int64) uint64 {
	if sum, ok := v.want[graph][source]; ok {
		return sum
	}
	ref := v.graphs[graph].SerialBFS(source)
	sum := checksum(ref.Dist, ref.Levels)
	v.want[graph][source] = sum
	return sum
}

// badOps returns the ops that returned at least one wrong answer.
func (v *verifier) badOps(answers []answer) map[int]bool {
	bad := map[int]bool{}
	for _, a := range answers {
		if a.sum != v.expected(a.graph, a.source) {
			bad[a.op] = true
		}
	}
	return bad
}
