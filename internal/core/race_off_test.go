//go:build !race

package core

// raceEnabled reports whether the race detector is active; under it
// sync.Pool drops a random quarter of its Puts, so stamp-chunk adjacency is
// not deterministic.
const raceEnabled = false
