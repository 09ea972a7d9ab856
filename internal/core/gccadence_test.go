package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dsg"
	"repro/internal/mvutil"
	"repro/internal/stm"
	"repro/internal/stm/stmtest"
	"repro/internal/wal"
)

// The conformance and serializability batteries with version GC every K
// commits, so every collection pass races the battery's open snapshots
// through the single-bound sweep. The test names and K values are those of
// the deleted clock-sharding variants (DESIGN.md §17); the engine has one
// clock, and K now sets GCEveryNCommits. K=1 runs a pass after every commit:
// the conformance battery's ROAbortFree then holds read-only aborts at exactly
// zero at the tightest cadence.

func gcCadenceFactory(k int) func() stm.TM {
	return func() stm.TM {
		return core.New(core.Options{Options: mvutil.Options{GCEveryNCommits: k}})
	}
}

func TestConformanceClockShards(t *testing.T) {
	for _, k := range []int{1, 2, 4, 16} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			stmtest.Run(t, gcCadenceFactory(k), stmtest.Options{RONeverAborts: true})
		})
	}
}

func TestSerializabilityDSGClockShards(t *testing.T) {
	for _, k := range []int{1, 2, 4, 16} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			dsg.CheckRandom(t, gcCadenceFactory(k)(), dsg.RunOptions{Seed: uint64(k)})
		})
	}
}

func TestSerializabilityDSGClockShardsHighContention(t *testing.T) {
	for _, k := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			dsg.CheckRandom(t, gcCadenceFactory(k)(),
				dsg.RunOptions{Vars: 3, Goroutines: 8, TxPerG: 120, Seed: uint64(100 + k)})
		})
	}
}

func TestSerializabilityDSGClockShardsReadHeavy(t *testing.T) {
	dsg.CheckRandom(t, gcCadenceFactory(4)(),
		dsg.RunOptions{Vars: 6, Goroutines: 6, TxPerG: 150, ReadOnlyP: 0.6, Seed: 17})
}

func TestSerializabilityDSGClockShardsAblation(t *testing.T) {
	dsg.CheckRandom(t, core.New(core.Options{Options: mvutil.Options{GCEveryNCommits: 4}, DisableTimeWarp: true}),
		dsg.RunOptions{Vars: 4, Goroutines: 8, TxPerG: 120, Seed: 23})
}

// The GroupCommit variants run the cadences with a live write-ahead log
// attached, whose per-commit fsyncs concurrent committers share
// (groupcommit_test.go).

func TestConformanceClockShardsGroupCommit(t *testing.T) {
	stmtest.Run(t, loggedFactory(t, wal.SyncPerCommit, mvutil.Options{GCEveryNCommits: 4}),
		stmtest.Options{RONeverAborts: true})
}

func TestSerializabilityDSGClockShardsGroupCommit(t *testing.T) {
	for _, k := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			checkLoggedDSG(t, wal.SyncPerCommit, mvutil.Options{GCEveryNCommits: k},
				dsg.RunOptions{Vars: 4, Goroutines: 8, TxPerG: 120, Seed: uint64(200 + k)})
		})
	}
}
