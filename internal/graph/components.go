package graph

// ConnectedComponents labels the connected components of an undirected CSR
// graph (one where every edge appears in both directions). It returns the
// component id of each vertex and the number of components. Implementation
// is an iterative BFS flood fill, so it handles graphs far deeper than the
// goroutine stack would allow for recursion.
func ConnectedComponents(g *CSR) (comp []int64, count int64) {
	comp = make([]int64, g.NumVerts)
	for i := range comp {
		comp[i] = -1
	}
	queue := make([]int64, 0, 1024)
	for s := int64(0); s < g.NumVerts; s++ {
		if comp[s] != -1 {
			continue
		}
		comp[s] = count
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, v := range g.Neighbors(u) {
				if comp[v] == -1 {
					comp[v] = count
					queue = append(queue, int64(v))
				}
			}
		}
		count++
	}
	return comp, count
}

// LargestComponent returns the id and size of the largest connected
// component given a component labeling.
func LargestComponent(comp []int64, count int64) (id, size int64) {
	sizes := make([]int64, count)
	for _, c := range comp {
		sizes[c]++
	}
	for i, s := range sizes {
		if s > size {
			id, size = int64(i), s
		}
	}
	return id, size
}

// SampleSources returns up to k distinct vertices from the given component
// with non-zero degree, chosen deterministically by a caller-provided
// random source via next(n) in [0,n). The Graph 500 benchmark requires
// search keys to be sampled uniformly from vertices with at least one
// neighbor; the paper further restricts to the large component so every
// search does full work.
func SampleSources(g *CSR, comp []int64, compID int64, k int, next func(n int64) int64) []int64 {
	candidates := make([]int64, 0, 1024)
	for v := int64(0); v < g.NumVerts; v++ {
		if comp[v] == compID && g.Degree(v) > 0 {
			candidates = append(candidates, v)
		}
	}
	if len(candidates) == 0 {
		return nil
	}
	if k > len(candidates) {
		k = len(candidates)
	}
	// Partial Fisher-Yates: pick k without replacement.
	out := make([]int64, 0, k)
	for i := 0; i < k; i++ {
		j := int64(i) + next(int64(len(candidates)-i))
		candidates[i], candidates[j] = candidates[j], candidates[i]
		out = append(out, candidates[i])
	}
	return out
}
