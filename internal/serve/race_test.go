//go:build race

package serve

// raceEnabled reports a -race build, whose sync.Pool drops a random
// share of Puts, so allocation counts there mean nothing.
const raceEnabled = true
