// Package serial provides the single-threaded reference BFS (Algorithm 1
// of the paper) and the validation oracle the distributed
// implementations are checked against.
package serial

import "repro/internal/graph"

// Unreached marks vertices not reachable from the source in distance and
// parent arrays.
const Unreached = int64(-1)

// Result holds the output of a BFS: distance (level) and BFS-tree parent
// per vertex. The source's parent is itself, matching Graph 500
// conventions.
type Result struct {
	Source int64
	Dist   []int64
	Parent []int64
}

// BFS runs the two-stack level-synchronous BFS of Algorithm 1, returning
// distances and parents. It is the correctness oracle for every parallel
// implementation in this repository.
func BFS(g *graph.CSR, source int64) *Result {
	n := g.NumVerts
	dist := make([]int64, n)
	parent := make([]int64, n)
	for i := range dist {
		dist[i] = Unreached
		parent[i] = Unreached
	}
	dist[source] = 0
	parent[source] = source

	fs := make([]int64, 0, 1024) // current frontier
	ns := make([]int64, 0, 1024) // next frontier
	fs = append(fs, source)
	level := int64(1)
	for len(fs) > 0 {
		ns = ns[:0]
		for _, u := range fs {
			for _, v := range g.Neighbors(u) {
				if dist[v] == Unreached {
					dist[v] = level
					parent[v] = u
					ns = append(ns, int64(v))
				}
			}
		}
		fs, ns = ns, fs
		level++
	}
	return &Result{Source: source, Dist: dist, Parent: parent}
}

// MaxLevel returns the largest finite distance in the result (the
// eccentricity of the source within its component).
func (r *Result) MaxLevel() int64 {
	var m int64
	for _, d := range r.Dist {
		if d > m {
			m = d
		}
	}
	return m
}

// EdgesTraversed counts the edge slots examined by a full traversal from
// the source: the sum of degrees of reached vertices. This is the quantity
// TEPS normalizes by (the Graph 500 benchmark counts each undirected input
// edge once; callers divide by two when the CSR stores both directions).
func (r *Result) EdgesTraversed(g *graph.CSR) int64 {
	var m int64
	for v := int64(0); v < g.NumVerts; v++ {
		if r.Dist[v] != Unreached {
			m += g.Degree(v)
		}
	}
	return m
}
