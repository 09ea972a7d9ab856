package repro

import (
	"repro/internal/core"
	"repro/internal/mvutil"
	"repro/internal/stm"
)

// newTWMWithGC builds a TWM instance with a custom GC period for the
// ablation benchmark.
func newTWMWithGC(every int) stm.TM {
	return core.New(core.Options{Options: mvutil.Options{GCEveryNCommits: every}})
}
