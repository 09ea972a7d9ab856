package core

import (
	"sync"
	"testing"

	"repro/internal/mvutil"
	"repro/internal/stm"
)

// Adversarial tests for the semi-visible read stamp (DESIGN.md §12): the
// committer-side target check must observe a reader's raise, and the
// raise/observe race argument must hold end to end while readers race a
// validating committer on the one stamp word.

// TestStampTargetTriad replays the Fig. 2(b) triad: the pivot B must observe
// the semi-visible reader's raise on x and abort under Rule 2.
func TestStampTargetTriad(t *testing.T) {
	tm := newTM()
	x := tm.NewVar(0)
	y := tm.NewVar(0)

	b := tm.Begin(false)
	b.Read(y)
	b.Write(x, 99)

	a := tm.Begin(false)
	a.Read(y)
	a.Write(y, 1)
	if !tm.Commit(a) {
		t.Fatal("a commit failed")
	}

	c := tm.Begin(true)
	if got := c.Read(x); got != 0 {
		t.Fatalf("c read = %v", got)
	}
	if !tm.Commit(c) {
		t.Fatal("read-only c must commit")
	}
	if tm.ReadStamp(x) == 0 {
		t.Fatal("c's read left x's stamp unraised")
	}

	if tm.Commit(b) {
		t.Fatal("pivot B must abort — committer missed the raise")
	}
	if snap := tm.Stats().Snapshot(); snap.ByReason["triad"] != 1 {
		t.Fatalf("abort reasons = %v, want one triad", snap.ByReason)
	}
}

// TestStampRaiseObserveRace soaks the raise/observe argument: concurrent
// readers race a committer (B) that is an anti-dependency source and
// validates x's stamp under its commit lock.
// The checkable end-to-end invariant is exactly the one the argument proves:
// if B time-warp commits at TW(B), then every reader whose snapshot covers
// TW(B) observed B's write — a reader that instead read the old value must
// have raised its stamp early enough for B to see it, making B a
// source-and-target pivot that aborts. A violation here means a committer
// missed a raise. Run under -race in CI.
func TestStampRaiseObserveRace(t *testing.T) {
	iters := 400
	if testing.Short() {
		iters = 60
	}
	const readers = 4
	for it := 0; it < iters; it++ {
		tm := newTM()
		x := tm.NewVar(0)
		y := tm.NewVar(0)

		b := tm.Begin(false).(*txn)
		b.Read(y)
		b.Write(x, 99)

		a := tm.Begin(false)
		a.Read(y)
		a.Write(y, 1)
		if !tm.Commit(a) {
			t.Fatalf("iter %d: a commit failed", it)
		}

		type obs struct {
			start uint64
			val   stm.Value
		}
		results := make([]obs, readers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < readers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				c := tm.Begin(true).(*txn)
				v := c.Read(x)
				if !tm.Commit(c) {
					t.Errorf("iter %d: read-only reader aborted", it)
				}
				results[i] = obs{start: c.start, val: v}
			}(i)
		}
		close(start)
		committed := tm.Commit(b)
		wg.Wait()

		if committed {
			for i, r := range results {
				if r.start >= b.twOrder && r.val != 99 {
					t.Fatalf("iter %d: B committed at TW=%d (N=%d) but reader %d with snapshot %d read %v — a raise was missed",
						it, b.twOrder, b.natOrder, i, r.start, r.val)
				}
			}
		}
	}
}

// TestPreDoomedCommitLeavesClockAlone verifies the clock-pressure relief: a
// commit that preDoomed rejects — here the Fig. 2(b) triad pivot — must not
// bump the shared clock (doomed commits "pass" on their increment).
func TestPreDoomedCommitLeavesClockAlone(t *testing.T) {
	tm := newTM()
	x := tm.NewVar(0)
	y := tm.NewVar(0)

	b := tm.Begin(false)
	b.Read(y)
	b.Write(x, 99)

	a := tm.Begin(false)
	a.Read(y)
	a.Write(y, 1)
	if !tm.Commit(a) {
		t.Fatal("a commit failed")
	}

	c := tm.Begin(true)
	_ = c.Read(x)
	if !tm.Commit(c) {
		t.Fatal("read-only c must commit")
	}

	before := tm.Clock()
	if tm.Commit(b) {
		t.Fatal("pivot B must abort")
	}
	if after := tm.Clock(); after != before {
		t.Fatalf("doomed commit bumped the clock: %d -> %d", before, after)
	}
	if snap := tm.Stats().Snapshot(); snap.ByReason["triad"] != 1 {
		t.Fatalf("abort reasons = %v, want one triad", snap.ByReason)
	}
}

// TestPreDoomedClassicValidation checks the DisableTimeWarp ablation's
// pre-draw doom: a stale read set aborts before the clock is touched.
func TestPreDoomedClassicValidation(t *testing.T) {
	tm := New(Options{Options: mvutil.Options{GCEveryNCommits: -1}, DisableTimeWarp: true})
	x := tm.NewVar(0)
	y := tm.NewVar(0)

	b := tm.Begin(false)
	b.Read(x)
	b.Write(y, 1)

	a := tm.Begin(false)
	a.Write(x, 2)
	if !tm.Commit(a) {
		t.Fatal("a commit failed")
	}

	before := tm.Clock()
	if tm.Commit(b) {
		t.Fatal("classic validation must abort b")
	}
	if after := tm.Clock(); after != before {
		t.Fatalf("doomed commit bumped the clock: %d -> %d", before, after)
	}
}
