package tl2

import (
	"testing"
	"testing/quick"
)

func TestMetaEncodingProperty(t *testing.T) {
	f := func(version uint32, locked bool) bool {
		m := uint64(version) << 1
		if locked {
			m |= lockBit
		}
		return metaVersion(m) == uint64(version) && metaLocked(m) == locked
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLockReleaseOnAbort(t *testing.T) {
	tm := New()
	x := tm.NewVar(0)
	y := tm.NewVar(0)

	// Force a commit failure after y is locked: make x stale.
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
	if tm.Commit(t1) {
		t.Fatalf("t1 should fail validation")
	}
	if metaLocked(y.(*tlvar).meta.Load()) {
		t.Fatalf("y's lock leaked after failed commit")
	}
	t3 := tm.Begin(false)
	t3.Write(y, 2)
	if !tm.Commit(t3) {
		t.Fatalf("y not writable after abort")
	}
}

func TestReadOnlyAbortsOnNewerVersion(t *testing.T) {
	// TL2 read-only transactions skip commit validation but each read is
	// individually checked against rv — a stale snapshot aborts mid-read.
	tm := New()
	x := tm.NewVar(0)
	ro := tm.Begin(true)

	w := tm.Begin(false)
	w.Write(x, 1)
	if !tm.Commit(w) {
		t.Fatalf("w commit failed")
	}

	aborted := func() (a bool) {
		defer func() { a = recover() != nil }()
		ro.Read(x)
		return false
	}()
	if !aborted {
		t.Fatalf("RO read of newer version must retry (single-version TM)")
	}
	tm.Abort(ro)
	if tm.Stats().Snapshot().ByReason["read-conflict"] == 0 {
		t.Fatalf("abort reason not recorded")
	}
}

func TestWriteVersionMonotonicPerVar(t *testing.T) {
	tm := New()
	tm.EnableHistory()
	x := tm.NewVar(0)
	for i := 1; i <= 5; i++ {
		tx := tm.Begin(false)
		tx.Write(x, i)
		if !tm.Commit(tx) {
			t.Fatalf("commit %d failed", i)
		}
	}
	hist := tm.History(x)
	if len(hist) != 5 {
		t.Fatalf("history = %d entries", len(hist))
	}
	for i := 1; i < len(hist); i++ {
		if hist[i].Serial <= hist[i-1].Serial {
			t.Fatalf("versions not strictly increasing: %v", hist)
		}
	}
}

func TestEarlyLockFailOnNewerVersion(t *testing.T) {
	// lockVar refuses to lock a variable whose version already exceeds rv:
	// the transaction is doomed, so it aborts before taking locks.
	tm := New()
	x := tm.NewVar(0)
	t1 := tm.Begin(false)
	t1.Write(x, 10)

	t2 := tm.Begin(false)
	t2.Write(x, 20)
	if !tm.Commit(t2) {
		t.Fatalf("t2 commit failed")
	}
	if tm.Commit(t1) {
		t.Fatalf("t1 blind write over newer version must abort (no read ever validated x)")
	}
}
