package core

import (
	"testing"

	"repro/internal/mvutil"
	"repro/internal/stm"
)

// TestBudgetSoftGCEager: past the soft limit, commits trigger eager GC passes
// (with automatic GC disabled, the budget is the only thing that can collect),
// and version memory stabilizes near the limit instead of growing with the
// number of commits.
func TestBudgetSoftGCEager(t *testing.T) {
	b := mvutil.NewVersionBudget(mvutil.BudgetConfig{SoftVersions: 8, HardVersions: 10_000})
	tm := New(Options{Options: mvutil.Options{GCEveryNCommits: -1, Budget: b}})
	v := stm.NewTVar(tm, 0)
	for i := 0; i < 50; i++ {
		if err := stm.Atomically(tm, false, func(tx stm.Tx) error {
			v.Set(tx, v.Get(tx)+1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if b.SoftGCs() == 0 {
		t.Fatal("no eager GC pass ran past the soft limit")
	}
	if got := b.Versions(); got > 9 {
		t.Fatalf("version memory did not stabilize: %d live versions (soft limit 8)", got)
	}
	if b.Trims() != 0 || b.Rejects() != 0 {
		t.Fatalf("soft pressure escalated to trim/reject: %+v", b.Snapshot())
	}
	if lvl := b.Level(); lvl == mvutil.PressureHard {
		t.Fatalf("level = %v after stabilization", lvl)
	}
}

// TestBudgetHardTrim: a pinned old snapshot blocks ordinary GC, so sustained
// writing drives the budget to the hard limit and the engine trims chains to
// MaxVersionDepth — revoking the pinned reader's no-abort guarantee: its next
// read of the trimmed variable restarts with ReasonMemoryPressure, while a
// fresh read-only transaction (current snapshot) is served fine.
func TestBudgetHardTrim(t *testing.T) {
	b := mvutil.NewVersionBudget(mvutil.BudgetConfig{SoftVersions: 4, HardVersions: 8})
	tm := New(Options{Options: mvutil.Options{GCEveryNCommits: -1, Budget: b, MaxVersionDepth: 2}})
	v := stm.NewTVar(tm, 0)

	ro := tm.Begin(true) // pin the initial snapshot; GC cannot advance past it

	for i := 0; i < 30; i++ {
		if err := stm.Atomically(tm, false, func(tx stm.Tx) error {
			v.Set(tx, v.Get(tx)+1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if b.Trims() == 0 {
		t.Fatalf("hard pressure never trimmed: %+v", b.Snapshot())
	}
	// Chains regrow between trims, but can never exceed the hard limit plus
	// the one install that trips it (without the budget, 30 commits against a
	// pinned snapshot would retain all 30 versions).
	if got := tm.VersionCount(v.Raw()); got > 9 {
		t.Fatalf("chain depth %d despite hard limit 8", got)
	}

	// The pinned reader's version is gone: its read must restart with
	// ReasonMemoryPressure (delivered as a retry signal).
	func() {
		defer func() {
			if recover() == nil {
				t.Error("pinned read-only transaction read a trimmed chain without restarting")
			}
		}()
		ro.Read(v.Raw())
	}()
	tm.Abort(ro)
	if got := tm.stats.Snapshot().ByReason[stm.ReasonMemoryPressure.String()]; got == 0 {
		t.Fatal("memory-pressure abort not recorded")
	}

	// A fresh read-only transaction takes a current snapshot, which the trim
	// depth always serves: full recovery.
	var got int
	if err := stm.Atomically(tm, true, func(tx stm.Tx) error {
		got = v.Get(tx)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != 30 {
		t.Fatalf("recovered read = %d, want 30", got)
	}
}

// TestBudgetHardReject: when GC is blocked by a pinned snapshot and trimming
// cannot get below the hard limit (the per-variable floor of MaxVersionDepth
// times the variable count exceeds it), installs are refused with
// ReasonMemoryPressure — and releasing the pin restores full service.
func TestBudgetHardReject(t *testing.T) {
	b := mvutil.NewVersionBudget(mvutil.BudgetConfig{SoftVersions: 4, HardVersions: 8})
	tm := New(Options{Options: mvutil.Options{GCEveryNCommits: -1, Budget: b, MaxVersionDepth: 4}})
	vars := make([]*stm.TVar[int], 4)
	for i := range vars {
		vars[i] = stm.NewTVar(tm, 0)
	}

	ro := tm.Begin(true) // pin

	write := func() bool {
		tx := tm.Begin(false).(*txn)
		for _, v := range vars {
			tx.Write(v.Raw(), 1)
		}
		return tm.Commit(tx)
	}
	var rejected *txn
	for i := 0; i < 10; i++ {
		tx := tm.Begin(false).(*txn)
		for _, v := range vars {
			tx.Write(v.Raw(), i)
		}
		if !tm.Commit(tx) {
			rejected = tx
			break
		}
	}
	if rejected == nil {
		t.Fatalf("no commit was refused under blocked-GC hard pressure: %+v", b.Snapshot())
	}
	if got := rejected.LastAbortReason(); got != stm.ReasonMemoryPressure {
		t.Fatalf("reject reason = %v, want memory-pressure", got)
	}
	if b.Rejects() == 0 {
		t.Fatal("reject not counted in the budget")
	}

	// Release the pin: GC can advance, pressure relieves, commits succeed.
	tm.Abort(ro)
	if !write() {
		t.Fatalf("commit still refused after pin release: %+v", b.Snapshot())
	}
	if lvl := b.Level(); lvl == mvutil.PressureHard {
		t.Fatalf("level = %v after recovery", lvl)
	}
}

// TestBudgetAccountingBalances: after quiescence and a full GC, the live
// count equals what is actually reachable (one retained version per
// variable) — installs and releases balance.
func TestBudgetAccountingBalances(t *testing.T) {
	b := mvutil.NewVersionBudget(mvutil.BudgetConfig{SoftVersions: 1 << 20, HardVersions: 1 << 21})
	tm := New(Options{Options: mvutil.Options{GCEveryNCommits: -1, Budget: b}})
	vars := make([]*stm.TVar[int], 8)
	for i := range vars {
		vars[i] = stm.NewTVar(tm, 0)
	}
	for i := 0; i < 25; i++ {
		if err := stm.Atomically(tm, false, func(tx stm.Tx) error {
			for _, v := range vars {
				v.Set(tx, v.Get(tx)+1)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	tm.GC()
	want := int64(0)
	for _, v := range vars {
		want += int64(tm.VersionCount(v.Raw()))
	}
	if got := b.Versions(); got != want {
		t.Fatalf("budget count %d, reachable versions %d", got, want)
	}
	if bytes := b.Bytes(); bytes <= 0 {
		t.Fatalf("budget bytes %d after GC, want positive", bytes)
	}
}
