package jvstm_test

import (
	"sync"
	"testing"

	"repro/internal/dsg"
	"repro/internal/jvstm"
	"repro/internal/mvutil"
	"repro/internal/stm"
	"repro/internal/stm/stmtest"
)

func factory() stm.TM { return jvstm.New(jvstm.Options{}) }

func TestConformance(t *testing.T) {
	stmtest.Run(t, factory, stmtest.Options{RONeverAborts: true})
}

func TestSerializabilityDSG(t *testing.T) {
	dsg.CheckRandom(t, factory(), dsg.RunOptions{})
}

func TestSerializabilityDSGHighContention(t *testing.T) {
	dsg.CheckRandom(t, factory(), dsg.RunOptions{Vars: 3, Goroutines: 8, TxPerG: 120, Seed: 42})
}

func TestMultiVersionReadNeverBlocksOrAborts(t *testing.T) {
	tm := jvstm.New(jvstm.Options{GCEveryNCommits: -1})
	x := tm.NewVar("v0")

	ro := tm.Begin(true) // snapshot at version 0
	for i := 1; i <= 3; i++ {
		w := tm.Begin(false)
		w.Write(x, "newer")
		if !tm.Commit(w) {
			t.Fatalf("writer %d failed", i)
		}
	}
	// The old snapshot still reads its version.
	if got := ro.Read(x); got != "v0" {
		t.Fatalf("snapshot read = %v, want v0", got)
	}
	if !tm.Commit(ro) {
		t.Fatalf("read-only commit failed")
	}
	if n := tm.VersionCount(x); n != 4 {
		t.Fatalf("version count = %d, want 4", n)
	}
	if freed := tm.GC(); freed != 3 {
		t.Fatalf("freed = %d, want 3", freed)
	}
}

func TestFailedCommitReleasesWriteLocks(t *testing.T) {
	// Regression: a commit that fails read validation after acquiring write
	// locks must release them, or every later writer of those variables
	// live-locks on lock timeouts.
	tm := factory()
	x := tm.NewVar(0)
	y := tm.NewVar(0)

	t1 := tm.Begin(false)
	t1.Read(x)
	t1.Write(y, 1) // t1 will lock y, then fail validating x

	t2 := tm.Begin(false)
	t2.Write(x, 1)
	if !tm.Commit(t2) {
		t.Fatalf("t2 commit failed")
	}
	if tm.Commit(t1) {
		t.Fatalf("t1 should fail classic validation")
	}
	// y must be writable again without retries.
	t3 := tm.Begin(false)
	t3.Write(y, 2)
	if !tm.Commit(t3) {
		t.Fatalf("write lock leaked by failed commit")
	}
	snap := tm.Stats().Snapshot()
	if snap.ByReason["lock-timeout"] != 0 {
		t.Fatalf("lock timeouts recorded: %v", snap.ByReason)
	}
}

func TestClassicValidationAbortsStaleRead(t *testing.T) {
	// JVSTM reads never abort mid-flight (unlike TL2), but the classic
	// commit-time validation still rejects the time-warpable history —
	// exactly the gap TWM closes.
	tm := factory()
	x := tm.NewVar(0)
	y := tm.NewVar(0)

	t1 := tm.Begin(false)
	if got := t1.Read(x); got != 0 {
		t.Fatalf("read = %v", got)
	}
	t1.Write(y, 1)

	t2 := tm.Begin(false)
	t2.Write(x, 1)
	if !tm.Commit(t2) {
		t.Fatalf("t2 commit failed")
	}
	// The read stays serviceable (multi-version)...
	if got := t1.Read(x); got != 0 {
		t.Fatalf("stale snapshot read = %v, want 0", got)
	}
	// ...but commit-in-the-present validation aborts.
	if tm.Commit(t1) {
		t.Fatalf("JVSTM must abort on stale read at commit")
	}
}

func TestDoomedCommitPassesOnClock(t *testing.T) {
	// Clock-pressure relief: a commit whose read set is already stale is
	// rejected by the pre-lock doom check, before the clock is bumped —
	// failed commits must not age concurrent snapshots.
	tm := jvstm.New(jvstm.Options{})
	x := tm.NewVar(0)
	y := tm.NewVar(0)

	t1 := tm.Begin(false)
	if got := t1.Read(x); got != 0 {
		t.Fatalf("read = %v", got)
	}
	t1.Write(y, 1)

	t2 := tm.Begin(false)
	t2.Write(x, 1)
	if !tm.Commit(t2) {
		t.Fatalf("t2 commit failed")
	}

	before := tm.Clock()
	if tm.Commit(t1) {
		t.Fatalf("t1 must abort on its stale read set")
	}
	if after := tm.Clock(); after != before {
		t.Fatalf("doomed commit bumped the clock: %d -> %d", before, after)
	}
}

// TestSnapshotPublishedBeforeSample is internal/core's test of the same name
// on this engine: a read-only transaction parked between its first clock
// sample and its registration, while commits and a collector pass go by, must
// come out with a snapshot the trimmed chain still serves, and commit with no
// abort of any reason.
func TestSnapshotPublishedBeforeSample(t *testing.T) {
	tm := jvstm.New(jvstm.Options{GCEveryNCommits: -1})
	x := tm.NewVar(0)
	bump := func() {
		tx := tm.Begin(false)
		tx.Write(x, tx.Read(x).(int)+1)
		if !tm.Commit(tx) {
			t.Fatalf("uncontended commit aborted")
		}
	}
	bump()
	tm.SnapshotStall = func() {
		tm.SnapshotStall = nil
		bump()
		bump()
		if freed := tm.GC(); freed == 0 {
			t.Errorf("the pass inside the window freed nothing")
		}
	}
	ro := tm.Begin(true)
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("read-only read failed (%v): the pass trimmed the version its snapshot needs", r)
			}
		}()
		if got := ro.Read(x); got != 3 {
			t.Errorf("read %v, want 3", got)
		}
	}()
	if !tm.Commit(ro) {
		t.Fatal("read-only commit failed")
	}
	if n := tm.Stats().Snapshot().Aborts; n != 0 {
		t.Errorf("%d aborts; a read-only transaction never aborts", n)
	}
}

// TestGCBoundBelowPredecessor is internal/core's test of the same name on
// this engine: a pass at a bound below its predecessor's (a stale first
// snapshot sample published late) stops at the oldest retained version.
func TestGCBoundBelowPredecessor(t *testing.T) {
	tm := jvstm.New(jvstm.Options{GCEveryNCommits: -1})
	x := tm.NewVar(0)
	bump := func() {
		tx := tm.Begin(false)
		tx.Write(x, tx.Read(x).(int)+1)
		if !tm.Commit(tx) {
			t.Fatalf("uncontended commit aborted")
		}
	}
	for range 3 {
		bump()
	}
	tm.GC() // bound = the clock: only the newest version stays
	bump()
	var slot mvutil.Slot
	tm.ActiveSet().Register(&slot, 1, false) // a first sample published late
	if freed := tm.GC(); freed != 0 {
		t.Errorf("the pass at the lower bound freed %d, want 0", freed)
	}
	if n := tm.VersionCount(x); n != 2 {
		t.Errorf("%d versions after the pass at the lower bound, want 2", n)
	}
	tm.ActiveSet().Register(&slot, tm.Clock(), false) // the republished snapshot
	if freed := tm.GC(); freed != 1 {
		t.Errorf("the pass at the republished bound freed %d, want 1", freed)
	}
	tm.ActiveSet().Unregister(&slot)
	ro := tm.Begin(true)
	if got := ro.Read(x); got != 4 {
		t.Errorf("read %v, want 4", got)
	}
	if !tm.Commit(ro) {
		t.Error("read-only commit failed")
	}
}

// TestSeedClockMonotone is internal/core's test of the same name on this
// engine: seeding the clock while committers race it loses no update, leaves
// the clock at or above the seed, and a lower seed is a no-op.
func TestSeedClockMonotone(t *testing.T) {
	const (
		workers = 8
		perW    = 300
		seedTo  = 5000
	)
	tm := jvstm.New(jvstm.Options{})
	x := tm.NewVar(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				err := stm.Atomically(tm, false, func(tx stm.Tx) error {
					tx.Write(x, tx.Read(x).(int)+1)
					return nil
				})
				if err != nil {
					t.Errorf("atomic increment: %v", err)
					return
				}
			}
		}()
	}
	tm.SeedClock(seedTo) // races the committers' draws
	wg.Wait()
	c := tm.Clock()
	if c < seedTo {
		t.Fatalf("clock %d below seed %d", c, seedTo)
	}
	tm.SeedClock(seedTo / 2)
	if got := tm.Clock(); got != c {
		t.Fatalf("a lower seed moved the clock: %d -> %d", c, got)
	}
	ro := tm.Begin(true)
	if got := ro.Read(x).(int); got != workers*perW {
		t.Fatalf("lost updates across seeding: got %d, want %d", got, workers*perW)
	}
	tm.Commit(ro)
}
