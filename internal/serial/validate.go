package serial

import (
	"fmt"

	"repro/internal/graph"
)

// Validate checks a BFS result against the Graph 500 validation rules:
//
//  1. the BFS tree is a tree rooted at the source (parent pointers reach
//     the source without cycles);
//  2. tree edges connect vertices whose BFS levels differ by exactly one;
//  3. every edge in the graph connects vertices whose levels differ by at
//     most one, or joins a reached and an unreached vertex only if neither
//     is reached (i.e. an edge cannot bridge reached and unreached);
//  4. every reached vertex has a parent; the source is its own parent;
//  5. distances agree with an independently computed reference when one is
//     supplied.
//
// It returns nil when the result is a valid BFS of g, or a descriptive
// error naming the first violated rule.
func Validate(g *graph.CSR, r *Result, reference *Result) error {
	n := g.NumVerts
	if int64(len(r.Dist)) != n || int64(len(r.Parent)) != n {
		return fmt.Errorf("validate: array lengths (%d,%d) != n=%d", len(r.Dist), len(r.Parent), n)
	}
	if r.Source < 0 || r.Source >= n {
		return fmt.Errorf("validate: source %d out of range", r.Source)
	}
	if r.Dist[r.Source] != 0 {
		return fmt.Errorf("validate: rule 4: source distance %d != 0", r.Dist[r.Source])
	}
	if r.Parent[r.Source] != r.Source {
		return fmt.Errorf("validate: rule 4: source parent %d != source %d", r.Parent[r.Source], r.Source)
	}

	// Rules 1, 2, 4: parent consistency and level structure.
	for v := int64(0); v < n; v++ {
		d, p := r.Dist[v], r.Parent[v]
		if (d == Unreached) != (p == Unreached) {
			return fmt.Errorf("validate: rule 4: vertex %d dist=%d parent=%d disagree on reachability", v, d, p)
		}
		if d == Unreached || v == r.Source {
			continue
		}
		if p < 0 || p >= n {
			return fmt.Errorf("validate: rule 1: vertex %d parent %d out of range", v, p)
		}
		if r.Dist[p] != d-1 {
			return fmt.Errorf("validate: rule 2: tree edge (%d,%d) spans levels %d and %d", p, v, r.Dist[p], d)
		}
		if !hasEdge(g, p, v) {
			return fmt.Errorf("validate: rule 1: tree edge (%d,%d) not in graph", p, v)
		}
	}

	// Rule 1 (acyclicity) follows from rule 2: parent levels strictly
	// decrease, so following parents terminates at level 0. Verify level 0
	// is only the source.
	for v := int64(0); v < n; v++ {
		if r.Dist[v] == 0 && v != r.Source {
			return fmt.Errorf("validate: rule 1: vertex %d at level 0 is not the source", v)
		}
	}

	// Rule 3: every graph edge respects BFS level geometry.
	for u := int64(0); u < n; u++ {
		du := r.Dist[u]
		for _, v := range g.Neighbors(u) {
			dv := r.Dist[v]
			if du == Unreached && dv == Unreached {
				continue
			}
			if du == Unreached || dv == Unreached {
				return fmt.Errorf("validate: rule 3: edge (%d,%d) bridges reached and unreached", u, v)
			}
			if du-dv > 1 || dv-du > 1 {
				return fmt.Errorf("validate: rule 3: edge (%d,%d) spans levels %d and %d", u, v, du, dv)
			}
		}
	}

	// Rule 5: distances match the reference oracle exactly.
	if reference != nil {
		if reference.Source != r.Source {
			return fmt.Errorf("validate: rule 5: reference source %d != %d", reference.Source, r.Source)
		}
		for v := int64(0); v < n; v++ {
			if r.Dist[v] != reference.Dist[v] {
				return fmt.Errorf("validate: rule 5: vertex %d dist %d != reference %d", v, r.Dist[v], reference.Dist[v])
			}
		}
	}
	return nil
}

// hasEdge reports whether (u,v) is an edge, using binary search over the
// sorted adjacency block of u.
func hasEdge(g *graph.CSR, u, v int64) bool {
	adj := g.Neighbors(u)
	lo, hi := 0, len(adj)
	for lo < hi {
		mid := (lo + hi) / 2
		if int64(adj[mid]) < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(adj) && int64(adj[lo]) == v
}
