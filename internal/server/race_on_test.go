//go:build race

package server_test

// raceEnabled reports whether the race detector is active; allocation budgets
// only hold without it.
const raceEnabled = true
