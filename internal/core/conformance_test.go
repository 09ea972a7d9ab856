package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dsg"
	"repro/internal/mvutil"
	"repro/internal/stm"
	"repro/internal/stm/stmtest"
)

func factory() stm.TM { return core.New(core.Options{}) }

func TestConformance(t *testing.T) {
	stmtest.Run(t, factory, stmtest.Options{RONeverAborts: true})
}

func TestConformanceNoTimeWarpAblation(t *testing.T) {
	stmtest.Run(t, func() stm.TM { return core.New(core.Options{DisableTimeWarp: true}) },
		stmtest.Options{RONeverAborts: true})
}

func TestSerializabilityDSG(t *testing.T) {
	dsg.CheckRandom(t, factory(), dsg.RunOptions{})
}

func TestSerializabilityDSGHighContention(t *testing.T) {
	dsg.CheckRandom(t, factory(), dsg.RunOptions{Vars: 3, Goroutines: 8, TxPerG: 120, Seed: 42})
}

func TestSerializabilityDSGReadHeavy(t *testing.T) {
	dsg.CheckRandom(t, factory(), dsg.RunOptions{Vars: 6, Goroutines: 6, TxPerG: 150, ReadOnlyP: 0.6, Seed: 7})
}

func TestSerializabilityDSGWithGC(t *testing.T) {
	// GC must not perturb serializability bookkeeping (history records are
	// retained even when version bodies are trimmed).
	dsg.CheckRandom(t, core.New(core.Options{Options: mvutil.Options{GCEveryNCommits: 64}}), dsg.RunOptions{Seed: 11})
}
