package core_test

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dsg"
	"repro/internal/mvutil"
	"repro/internal/stm"
	"repro/internal/stm/stmtest"
)

func gcFactory() stm.TM { return core.New(core.Options{Options: mvutil.Options{GroupCommit: true}}) }

func TestGroupCommitConformance(t *testing.T) {
	stmtest.Run(t, gcFactory, stmtest.Options{RONeverAborts: true})
}

// A tiny batch cap forces the chunking path (every drain splits) through the
// whole battery.
func TestGroupCommitConformanceSmallBatches(t *testing.T) {
	stmtest.Run(t, func() stm.TM {
		return core.New(core.Options{Options: mvutil.Options{GroupCommit: true, GroupMaxBatch: 2}})
	}, stmtest.Options{RONeverAborts: true})
}

func TestGroupCommitSerializabilityDSG(t *testing.T) {
	dsg.CheckRandom(t, gcFactory(), dsg.RunOptions{})
}

func TestGroupCommitSerializabilityDSGHighContention(t *testing.T) {
	// Few variables, many writers: heavy write-write overlap exercises the
	// spill path, and intra-batch read-write overlap exercises batched warps.
	dsg.CheckRandom(t, gcFactory(), dsg.RunOptions{Vars: 3, Goroutines: 8, TxPerG: 120, Seed: 42})
}

func TestGroupCommitSerializabilityDSGSmallBatches(t *testing.T) {
	dsg.CheckRandom(t, core.New(core.Options{Options: mvutil.Options{GroupCommit: true, GroupMaxBatch: 2}}),
		dsg.RunOptions{Vars: 4, Goroutines: 8, TxPerG: 100, Seed: 9})
}

func TestGroupCommitSerializabilityDSGWithGC(t *testing.T) {
	dsg.CheckRandom(t, core.New(core.Options{Options: mvutil.Options{GroupCommit: true, GCEveryNCommits: 64}}),
		dsg.RunOptions{Seed: 11})
}

func TestGroupCommitRejectsIncompatibleModes(t *testing.T) {
	for _, opts := range []core.Options{
		{Options: mvutil.Options{GroupCommit: true}, DisableTimeWarp: true},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) must panic", opts)
				}
			}()
			core.New(opts)
		}()
	}
}

// TestGroupCommitOneTickPerBatch is the acceptance assertion for DESIGN.md
// §13's headline invariant: the batched path advances the shared clock exactly
// once per installed batch, no matter how many commits the batch carries.
func TestGroupCommitOneTickPerBatch(t *testing.T) {
	tm := core.New(core.Options{Options: mvutil.Options{GroupCommit: true}})
	const goroutines, txPerG, vars = 8, 200, 64
	tvs := make([]*stm.TVar[int], vars)
	for i := range tvs {
		tvs[i] = stm.NewTVar(tm, 0)
	}
	clock0 := tm.Clock()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < txPerG; i++ {
				v := tvs[(g*txPerG+i*7)%vars]
				if err := stm.Atomically(tm, false, func(tx stm.Tx) error {
					v.Set(tx, v.Get(tx)+1)
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	snap := tm.Stats().Snapshot()
	if snap.ClockAdvances != snap.GroupBatches {
		t.Fatalf("clock advances = %d, batches = %d: want exactly one advance per batch",
			snap.ClockAdvances, snap.GroupBatches)
	}
	if snap.GroupBatches == 0 || snap.GroupBatchTxs == 0 {
		t.Fatalf("no batches recorded: %+v", snap)
	}
	// Every update commit went through the combiner. A batch carries the
	// members that consumed its reserved ticks, so the carried count brackets
	// the commit count (a member can still fail its scan at its turn and
	// waste its tick) and the total clock motion equals the carried count
	// exactly — the advance-amortization the stage exists for.
	if snap.GroupBatchTxs < snap.Commits || snap.GroupBatchTxs > snap.Commits+snap.Aborts {
		t.Fatalf("batch txs = %d, commits = %d, aborts = %d",
			snap.GroupBatchTxs, snap.Commits, snap.Aborts)
	}
	if moved := tm.Clock() - clock0; moved != snap.GroupBatchTxs {
		t.Fatalf("clock moved %d, batch txs = %d", moved, snap.GroupBatchTxs)
	}
	var histTotal uint64
	for _, n := range snap.BatchSizeHist {
		histTotal += n
	}
	if histTotal != snap.GroupBatches {
		t.Fatalf("histogram total = %d, batches = %d", histTotal, snap.GroupBatches)
	}
	if mean := snap.MeanBatchSize(); mean < 1 {
		t.Fatalf("mean batch size = %v", mean)
	}
}

// TestGroupCommitSpillRound drives two committers with identical write sets
// through one leader session: the overlap forces one member to spill to a
// second round, and the increment must never be lost (the spilled RMW either
// sequences after the first or aborts its stale attempt and retries — a
// same-variable RMW race is a triad in TWM, batched or not).
func TestGroupCommitSpillRound(t *testing.T) {
	block := make(chan struct{})
	release := sync.OnceFunc(func() { close(block) })
	tm := core.New(core.Options{Options: mvutil.Options{GroupCommit: true, GroupHooks: &mvutil.BatchHooks{
		// Stall the first leader until both committers have published, so the
		// drain is guaranteed to see both overlapping write sets in one batch.
		LeaderStall: func() { <-block },
	}}})
	x := stm.NewTVar(tm, 0)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := stm.Atomically(tm, false, func(tx stm.Tx) error {
				x.Set(tx, x.Get(tx)+1)
				return nil
			}); err != nil {
				t.Error(err)
			}
		}()
	}
	// Both goroutines publish, then spin/sleep: one wins the leader lock and
	// blocks in the stall until the other has published too. Unblock once the
	// stats show two in-flight starts; a plain sleep-free release is enough
	// because the stall only needs to cover publication, which RecordStart
	// precedes. Simplest robust trigger: release when both attempts started.
	go func() {
		for {
			if s, _, _, _ := statsTotals(tm); s >= 2 {
				release()
				return
			}
		}
	}()
	wg.Wait()
	release()
	snap := tm.Stats().Snapshot()
	if snap.Commits != 2 {
		t.Fatalf("commits = %d, want 2 (aborts = %d)", snap.Commits, snap.Aborts)
	}
	if err := stm.Atomically(tm, true, func(tx stm.Tx) error {
		if got := x.Get(tx); got != 2 {
			t.Errorf("x = %d, want 2", got)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func statsTotals(tm stm.TM) (starts, commits, ro, aborts uint64) {
	return tm.Stats().Totals()
}
