package jvstm_test

import (
	"fmt"
	"testing"

	"repro/internal/dsg"
	"repro/internal/jvstm"
	"repro/internal/stm"
	"repro/internal/stm/stmtest"
)

// The conformance and serializability batteries with version GC every K
// commits, so every collection pass races the battery's open snapshots
// through the single-bound sweep. The test names and K values are those of
// the deleted clock-sharding variants (DESIGN.md §17); the engine has one
// clock, and K now sets GCEveryNCommits. K=1 runs a pass after every commit:
// the conformance battery's ROAbortFree then holds read-only aborts at exactly
// zero at the tightest cadence.

func gcCadenceFactory(k int, group bool) func() stm.TM {
	return func() stm.TM {
		return jvstm.New(jvstm.Options{GCEveryNCommits: k, GroupCommit: group})
	}
}

func TestConformanceClockShards(t *testing.T) {
	for _, k := range []int{1, 2, 4, 16} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			stmtest.Run(t, gcCadenceFactory(k, false), stmtest.Options{RONeverAborts: true})
		})
	}
}

func TestSerializabilityDSGClockShards(t *testing.T) {
	for _, k := range []int{1, 2, 4, 16} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			dsg.CheckRandom(t, gcCadenceFactory(k, false)(), dsg.RunOptions{Seed: uint64(30 + k)})
		})
	}
}

func TestSerializabilityDSGClockShardsHighContention(t *testing.T) {
	for _, k := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			dsg.CheckRandom(t, gcCadenceFactory(k, false)(),
				dsg.RunOptions{Vars: 3, Goroutines: 8, TxPerG: 120, Seed: uint64(300 + k)})
		})
	}
}

func TestSerializabilityDSGClockShardsGroupCommit(t *testing.T) {
	for _, k := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			dsg.CheckRandom(t, gcCadenceFactory(k, true)(),
				dsg.RunOptions{Vars: 4, Goroutines: 8, TxPerG: 120, Seed: uint64(400 + k)})
		})
	}
}

func TestConformanceClockShardsGroupCommit(t *testing.T) {
	stmtest.Run(t, gcCadenceFactory(4, true), stmtest.Options{RONeverAborts: true})
}
