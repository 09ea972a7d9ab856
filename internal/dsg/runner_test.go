package dsg_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dsg"
)

// TestCheckRandom keeps the randomized oracle's own entry point covered on a
// plain TWM engine.
func TestCheckRandom(t *testing.T) {
	dsg.CheckRandom(t, core.New(core.Options{}), dsg.RunOptions{Goroutines: 4, TxPerG: 80, Seed: 11})
}
