// Package scratch holds the growth helper shared by the BFS drivers'
// reusable arenas, so both drivers apply the same policy.
package scratch

// Ranks grows a per-rank scratch slice to p entries, preserving the
// existing entries' buffers. It must be called before rank goroutines
// start: they index the result concurrently (disjoint elements).
func Ranks[T any](s []T, p int) []T {
	if len(s) >= p {
		return s
	}
	grown := make([]T, p)
	copy(grown, s)
	return grown
}
