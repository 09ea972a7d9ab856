package jvstm_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/dsg"
	"repro/internal/jvstm"
	"repro/internal/mvutil"
	"repro/internal/stm"
	"repro/internal/stm/stmtest"
	"repro/internal/wal"
)

// The batteries below keep the test names of the deleted flat-combining
// commit stage (DESIGN.md §13) and run JVSTM with a live write-ahead log, as
// internal/core's groupcommit_test.go does for TWM: the group commit that
// remains is the log's shared fsync.

// openLog opens a write-ahead log in a fresh temporary directory of t and
// closes it when t ends. It may be called from t's subtests (stmtest.Run calls
// its factory there), so it panics rather than calling t.Fatal.
func openLog(t *testing.T, policy wal.Policy) *wal.Writer {
	dir := t.TempDir()
	w, err := wal.Open(wal.Options{Dir: dir, Policy: policy, Interval: time.Millisecond})
	if err != nil {
		panic(err)
	}
	t.Cleanup(func() {
		if err := w.Close(); err != nil {
			t.Errorf("closing the log: %v", err)
		}
	})
	return w
}

// loggedFactory returns engines configured by opts, each with its own log.
func loggedFactory(t *testing.T, policy wal.Policy, opts jvstm.Options) func() stm.TM {
	return func() stm.TM {
		opts.Logger = openLog(t, policy)
		return jvstm.New(opts)
	}
}

// checkLoggedDSG runs the serializability oracle over an engine logging to its
// own log, then requires the log to close and recover with records in it.
func checkLoggedDSG(t *testing.T, policy wal.Policy, opts jvstm.Options, run dsg.RunOptions) {
	dir := t.TempDir()
	w, err := wal.Open(wal.Options{Dir: dir, Policy: policy, Interval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	opts.Logger = w
	dsg.CheckRandom(t, jvstm.New(opts), run)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := wal.Recover(dir)
	if err != nil {
		t.Fatalf("Recover after the DSG run: %v", err)
	}
	if rec.Records == 0 {
		t.Fatal("no commit records logged during the DSG run")
	}
}

func TestGroupCommitConformance(t *testing.T) {
	stmtest.Run(t, loggedFactory(t, wal.SyncPerCommit, jvstm.Options{}), stmtest.Options{RONeverAborts: true})
}

// The interval policy's 1 ms period keeps each fsync batch small, and its
// durability wait returns at once: the bounded-loss path through the battery.
func TestGroupCommitConformanceSmallBatches(t *testing.T) {
	stmtest.Run(t, loggedFactory(t, wal.SyncInterval, jvstm.Options{}), stmtest.Options{RONeverAborts: true})
}

func TestGroupCommitSerializabilityDSG(t *testing.T) {
	checkLoggedDSG(t, wal.SyncPerCommit, jvstm.Options{}, dsg.RunOptions{})
}

func TestGroupCommitSerializabilityDSGHighContention(t *testing.T) {
	checkLoggedDSG(t, wal.SyncPerCommit, jvstm.Options{}, dsg.RunOptions{Vars: 3, Goroutines: 8, TxPerG: 120, Seed: 42})
}

// TestGroupCommitOneTickPerBatch mirrors the core assertion: one clock tick
// per drawn commit, one record per acknowledged commit, every record synced
// before its commit returns.
func TestGroupCommitOneTickPerBatch(t *testing.T) {
	w := openLog(t, wal.SyncPerCommit)
	tm := jvstm.New(jvstm.Options{Logger: w})
	oneTickPerCommit(t, tm, w)
}

// oneTickPerCommit drives concurrent increments through tm, which logs to w,
// and checks the clock and log accounting of TestGroupCommitOneTickPerBatch.
func oneTickPerCommit(t *testing.T, tm stm.TM, w *wal.Writer) {
	t.Helper()
	const goroutines, txPerG, vars = 8, 50, 16
	tvs := make([]*stm.TVar[int], vars)
	for i := range tvs {
		tvs[i] = stm.NewTVar(tm, 0)
	}
	clock := mvutil.Of(tm)
	clock0 := clock.Clock()
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
	if snap.Commits != goroutines*txPerG {
		t.Fatalf("commits = %d, want %d", snap.Commits, goroutines*txPerG)
	}
	if moved := clock.Clock() - clock0; moved < snap.Commits || moved > snap.Commits+snap.Aborts {
		t.Fatalf("clock moved %d for %d commits and %d aborts: want one tick per drawn commit",
			moved, snap.Commits, snap.Aborts)
	}
	appended, synced, pending, err := w.WALCounters()
	if err != nil {
		t.Fatal(err)
	}
	if appended != snap.Commits {
		t.Fatalf("log holds %d records for %d commits", appended, snap.Commits)
	}
	if synced < appended || pending != 0 {
		t.Fatalf("synced %d of %d records (%d pending) after every commit returned", synced, appended, pending)
	}
}
