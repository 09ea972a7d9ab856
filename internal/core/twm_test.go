package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/mvutil"
	"repro/internal/stm"
)

// expectRetry runs fn and reports the retry reason it panicked with, failing
// the test if fn returned normally.
func expectRetry(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("expected a retry signal, got normal return")
		}
	}()
	fn()
	t.Fatalf("unreachable")
}

func newTM() *TM { return New(Options{Options: mvutil.Options{GCEveryNCommits: -1}}) }

func TestSequentialReadWrite(t *testing.T) {
	tm := newTM()
	x := tm.NewVar(10)

	tx := tm.Begin(false)
	if got := tx.Read(x); got != 10 {
		t.Fatalf("initial read = %v, want 10", got)
	}
	tx.Write(x, 20)
	if got := tx.Read(x); got != 20 {
		t.Fatalf("read-your-write = %v, want 20", got)
	}
	if !tm.Commit(tx) {
		t.Fatalf("uncontended commit failed")
	}

	ro := tm.Begin(true)
	if got := ro.Read(x); got != 20 {
		t.Fatalf("post-commit read = %v, want 20", got)
	}
	if !tm.Commit(ro) {
		t.Fatalf("read-only commit failed")
	}
}

func TestWriteBufferingIsolation(t *testing.T) {
	tm := newTM()
	x := tm.NewVar(1)
	tx := tm.Begin(false)
	tx.Write(x, 2)
	// Uncommitted writes must not be visible to others.
	other := tm.Begin(true)
	if got := other.Read(x); got != 1 {
		t.Fatalf("uncommitted write leaked: %v", got)
	}
	tm.Abort(tx)
	later := tm.Begin(true)
	if got := later.Read(x); got != 1 {
		t.Fatalf("aborted write leaked: %v", got)
	}
}

// TestFig1LinkedList replays the motivating example of §1.1 in abstract form:
// T3 read a variable that T2 then overwrote and committed, but T3's own writes
// were read by nobody. Classic validation aborts T3; TWM time-warp commits it
// before T2 (history T1 -> T3 -> T2).
func TestFig1LinkedList(t *testing.T) {
	tm := newTM()
	aNext := tm.NewVar("D") // A.next
	dNext := tm.NewVar("E") // D.next

	t3 := tm.Begin(false)
	if got := t3.Read(aNext); got != "D" {
		t.Fatalf("t3 read = %v", got)
	}
	t3.Read(dNext)
	t3.Write(dNext, "nil") // remove E

	t2 := tm.Begin(false)
	t2.Read(aNext)
	t2.Write(aNext, "B") // insert B between A and D
	if !tm.Commit(t2) {
		t.Fatalf("t2 commit failed")
	}

	if !tm.Commit(t3) {
		t.Fatalf("TWM must time-warp commit t3 (spurious abort)")
	}

	// A read-only transaction starting now sees both updates.
	ro := tm.Begin(true)
	if got := ro.Read(aNext); got != "B" {
		t.Fatalf("aNext = %v, want B", got)
	}
	if got := ro.Read(dNext); got != "nil" {
		t.Fatalf("dNext = %v, want nil", got)
	}
}

// TestFig1ClassicValidationAborts verifies the ablation: with time-warp
// disabled the same history aborts, as in TL2-style classic validation.
func TestFig1ClassicValidationAborts(t *testing.T) {
	tm := New(Options{Options: mvutil.Options{GCEveryNCommits: -1}, DisableTimeWarp: true})
	aNext := tm.NewVar("D")
	dNext := tm.NewVar("E")

	t3 := tm.Begin(false)
	t3.Read(aNext)
	t3.Write(dNext, "nil")

	t2 := tm.Begin(false)
	t2.Read(aNext)
	t2.Write(aNext, "B")
	if !tm.Commit(t2) {
		t.Fatalf("t2 commit failed")
	}
	if tm.Commit(t3) {
		t.Fatalf("classic validation must abort t3")
	}
	snap := tm.Stats().Snapshot()
	if snap.ByReason["read-conflict"] != 1 {
		t.Fatalf("abort reasons = %v, want one read-conflict", snap.ByReason)
	}
}

// TestFig2aDoubleAntiDependency: B misses the writes of two concurrent
// committers A1 (on y) and A2 (on z); Rule 1 orders B before both, at
// TW(B) = N(A1).
func TestFig2aDoubleAntiDependency(t *testing.T) {
	tm := newTM()
	x := tm.NewVar(0)
	y := tm.NewVar(0)
	z := tm.NewVar(0)

	b := tm.Begin(false).(*txn)
	b.Read(y)
	b.Read(z)
	b.Write(x, 99)

	a1 := tm.Begin(false)
	a1.Write(y, 1)
	if !tm.Commit(a1) {
		t.Fatalf("a1 commit failed")
	}
	a1Nat := tm.Clock()

	a2 := tm.Begin(false)
	a2.Write(z, 2)
	if !tm.Commit(a2) {
		t.Fatalf("a2 commit failed")
	}

	if !tm.Commit(b) {
		t.Fatalf("B must time-warp commit")
	}
	if b.twOrder != a1Nat {
		t.Fatalf("TW(B) = %d, want N(A1) = %d", b.twOrder, a1Nat)
	}
	if b.natOrder <= b.twOrder {
		t.Fatalf("time-warp commit must have natOrder > twOrder (got %d, %d)", b.natOrder, b.twOrder)
	}
}

// TestFig2bTriadAbort: a read-only transaction C reads x (semi-visibly), B
// writes x and also missed A's committed write to y. B is then the pivot of a
// triad (C -rw-> B -rw-> A) and must abort under Rule 2.
func TestFig2bTriadAbort(t *testing.T) {
	tm := newTM()
	x := tm.NewVar(0)
	y := tm.NewVar(0)
	z := tm.NewVar(0)

	b := tm.Begin(false)
	b.Read(y)
	b.Write(x, 99)

	a := tm.Begin(false)
	a.Read(y) // A also snapshots y before writing it
	a.Write(y, 1)
	if !tm.Commit(a) {
		t.Fatalf("a commit failed")
	}

	// Read-only C reads x after B started; its semi-visible read raises
	// x.readStamp so B's HANDLEWRITE sees the anti-dependency.
	c := tm.Begin(true)
	if got := c.Read(x); got != 0 {
		t.Fatalf("c read = %v", got)
	}
	c.Read(z)
	if !tm.Commit(c) {
		t.Fatalf("read-only c must commit")
	}

	if tm.Commit(b) {
		t.Fatalf("pivot B must abort (Rule 2)")
	}
	snap := tm.Stats().Snapshot()
	if snap.ByReason["triad"] != 1 {
		t.Fatalf("abort reasons = %v, want one triad", snap.ByReason)
	}
}

// TestFig2cReadOnlySeesTimeWarpedVersion: a read-only transaction whose
// snapshot covers a time-warp commit's serialization point must observe its
// writes, even though the natural commit happened after the snapshot.
func TestFig2cReadOnlySeesTimeWarpedVersion(t *testing.T) {
	tm := newTM()
	x := tm.NewVar(0)
	y := tm.NewVar(0)

	b := tm.Begin(false).(*txn)
	b.Read(y)
	b.Write(x, 7)

	a := tm.Begin(false)
	a.Write(y, 1)
	if !tm.Commit(a) {
		t.Fatalf("a commit failed")
	}

	c := tm.Begin(true) // S(C) >= N(A) = TW(B)
	if !tm.Commit(b) {
		t.Fatalf("B must time-warp commit")
	}
	if b.twOrder >= b.natOrder {
		t.Fatalf("B should have time-warped")
	}
	// C started before B's natural commit, but TW(B) <= S(C): Rule 3 makes
	// B's write part of C's snapshot.
	if got := c.Read(x); got != 7 {
		t.Fatalf("read-only snapshot must include time-warped version, got %v", got)
	}
	if !tm.Commit(c) {
		t.Fatalf("read-only c must commit")
	}
}

// TestFig2dUpdateReaderEarlyAbort: an update transaction in the same position
// as C above must NOT observe the time-warped version (Rule 3's natOrder
// condition) and must early-abort when it skips it (Rule 2 early check).
func TestFig2dUpdateReaderEarlyAbort(t *testing.T) {
	tm := newTM()
	x := tm.NewVar(0)
	y := tm.NewVar(0)

	b := tm.Begin(false)
	b.Read(y)
	b.Write(x, 7)

	a := tm.Begin(false)
	a.Write(y, 1)
	if !tm.Commit(a) {
		t.Fatalf("a commit failed")
	}

	u := tm.Begin(false) // update transaction, S(u) >= TW(B)
	if !tm.Commit(b) {
		t.Fatalf("B must time-warp commit")
	}
	expectRetry(t, func() { u.Read(x) })
	tm.Abort(u)
	snap := tm.Stats().Snapshot()
	if snap.ByReason["timewarp-skip"] != 1 {
		t.Fatalf("abort reasons = %v, want one timewarp-skip", snap.ByReason)
	}
}

// TestWriteSkewRejected: the classic SI anomaly (each transaction reads both
// variables and writes one) is non-serializable; TWM must abort the second
// committer via the triad rule.
func TestWriteSkewRejected(t *testing.T) {
	tm := newTM()
	x := tm.NewVar(1)
	y := tm.NewVar(1)

	t1 := tm.Begin(false)
	t1.Read(x)
	t1.Read(y)
	t1.Write(x, -1)

	t2 := tm.Begin(false)
	t2.Read(x)
	t2.Read(y)
	t2.Write(y, -1)

	if !tm.Commit(t1) {
		t.Fatalf("t1 commit failed")
	}
	if tm.Commit(t2) {
		t.Fatalf("write skew must be rejected")
	}
}

// TestTimeWarpClash: two transactions time-warp to the same point and write
// the same variable; the later natural committer's version is elided and the
// surviving state is the earlier committer's (inverse-N serialization).
func TestTimeWarpClash(t *testing.T) {
	tm := New(Options{Options: mvutil.Options{GCEveryNCommits: -1}})
	tm.EnableHistory()
	y := tm.NewVar(0)
	k := tm.NewVar("init")

	b1 := tm.Begin(false).(*txn)
	b1.Read(y)
	b1.Write(k, "b1")
	b2 := tm.Begin(false).(*txn)
	b2.Read(y)
	b2.Write(k, "b2")

	a := tm.Begin(false)
	a.Write(y, 1)
	if !tm.Commit(a) {
		t.Fatalf("a commit failed")
	}

	if !tm.Commit(b1) {
		t.Fatalf("b1 must commit")
	}
	if !tm.Commit(b2) {
		t.Fatalf("b2 must commit (clash, not conflict)")
	}
	if b1.twOrder != b2.twOrder {
		t.Fatalf("expected a clash: TW(b1)=%d TW(b2)=%d", b1.twOrder, b2.twOrder)
	}

	// b1 and b2 serialize in inverse natural order: b2 then b1, so b1's
	// value survives; b2's version is elided.
	ro := tm.Begin(true)
	if got := ro.Read(k); got != "b1" {
		t.Fatalf("surviving value = %v, want b1", got)
	}
	hist := tm.History(k)
	if len(hist) != 2 {
		t.Fatalf("history length = %d, want 2", len(hist))
	}
	if hist[0].Value != "b2" || !hist[0].Elided {
		t.Fatalf("first serialized version should be elided b2, got %+v", hist[0])
	}
	if hist[1].Value != "b1" || hist[1].Elided {
		t.Fatalf("second serialized version should be live b1, got %+v", hist[1])
	}
	if tm.VersionCount(k) != 2 { // init + b1
		t.Fatalf("version count = %d, want 2", tm.VersionCount(k))
	}
}

// TestReadOnlyNeverAborts hammers read-only transactions against a writer and
// checks mv-permissiveness: zero aborts attributable to the readers.
func TestReadOnlyNeverAborts(t *testing.T) {
	tm := newTM()
	vars := make([]stm.Var, 8)
	for i := range vars {
		vars[i] = tm.NewVar(0)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = stm.Atomically(tm, false, func(tx stm.Tx) error {
				for _, v := range vars {
					tx.Write(v, i)
				}
				return nil
			})
		}
	}()
	for i := 0; i < 500; i++ {
		tx := tm.Begin(true)
		first := tx.Read(vars[0])
		for _, v := range vars[1:] {
			if got := tx.Read(v); got != first {
				t.Errorf("inconsistent read-only snapshot: %v vs %v", first, got)
			}
		}
		if !tm.Commit(tx) {
			t.Fatalf("read-only commit failed")
		}
	}
	close(stop)
	wg.Wait()
}

func TestEmptyWriteSetCommit(t *testing.T) {
	tm := newTM()
	x := tm.NewVar(0)
	u := tm.Begin(false)
	u.Read(x)
	w := tm.Begin(false)
	w.Write(x, 1)
	if !tm.Commit(w) {
		t.Fatalf("w commit failed")
	}
	// u wrote nothing: it serializes at its start, no validation needed.
	if !tm.Commit(u) {
		t.Fatalf("write-free update transaction must commit")
	}
}

func TestLockReleaseOnFailedCommit(t *testing.T) {
	tm := newTM()
	x := tm.NewVar(0)
	y := tm.NewVar(0)

	// Build a triad abort for t2 and check x's lock is free afterwards.
	t2 := tm.Begin(false)
	t2.Read(y)
	t2.Write(x, 1)

	w := tm.Begin(false)
	w.Write(y, 1)
	if !tm.Commit(w) {
		t.Fatalf("w commit failed")
	}
	ro := tm.Begin(true)
	ro.Read(x)
	if !tm.Commit(ro) {
		t.Fatalf("ro commit failed")
	}
	if tm.Commit(t2) {
		t.Fatalf("t2 should abort")
	}
	if x.(*twvar).owner.Load() != nil {
		t.Fatalf("lock leaked after failed commit")
	}
	// The variable remains writable.
	t3 := tm.Begin(false)
	t3.Write(x, 2)
	if !tm.Commit(t3) {
		t.Fatalf("post-abort commit failed")
	}
}

func TestStatsAccounting(t *testing.T) {
	tm := newTM()
	x := tm.NewVar(0)
	for i := 0; i < 5; i++ {
		if err := stm.Atomically(tm, false, func(tx stm.Tx) error {
			tx.Write(x, i)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	ro := tm.Begin(true)
	ro.Read(x)
	tm.Commit(ro)
	snap := tm.Stats().Snapshot()
	if snap.Commits != 6 || snap.ROCommits != 1 || snap.Starts != 6 || snap.Aborts != 0 {
		t.Fatalf("unexpected stats: %+v", snap)
	}
	if snap.AbortRate() != 0 {
		t.Fatalf("abort rate = %v", snap.AbortRate())
	}
}

func TestGCTrimsVersions(t *testing.T) {
	tm := New(Options{Options: mvutil.Options{GCEveryNCommits: -1}})
	x := tm.NewVar(0)
	for i := 0; i < 100; i++ {
		tx := tm.Begin(false)
		tx.Write(x, i)
		if !tm.Commit(tx) {
			t.Fatalf("commit %d failed", i)
		}
	}
	if n := tm.VersionCount(x); n != 101 {
		t.Fatalf("pre-GC version count = %d, want 101", n)
	}
	freed := tm.GC()
	if freed != 100 {
		t.Fatalf("freed = %d, want 100", freed)
	}
	if n := tm.VersionCount(x); n != 1 {
		t.Fatalf("post-GC version count = %d, want 1", n)
	}
	ro := tm.Begin(true)
	if got := ro.Read(x); got != 99 {
		t.Fatalf("post-GC read = %v, want 99", got)
	}
}

func TestGCPreservesActiveSnapshot(t *testing.T) {
	tm := New(Options{Options: mvutil.Options{GCEveryNCommits: -1}})
	x := tm.NewVar("old")

	ro := tm.Begin(true) // snapshot before any update
	w := tm.Begin(false)
	w.Write(x, "new")
	if !tm.Commit(w) {
		t.Fatalf("w commit failed")
	}
	// GC must keep the version ro still needs.
	tm.GC()
	if got := ro.Read(x); got != "old" {
		t.Fatalf("active reader lost its snapshot: %v", got)
	}
	if !tm.Commit(ro) {
		t.Fatalf("ro commit failed")
	}
	// With ro finished, the old version becomes collectable.
	if freed := tm.GC(); freed != 1 {
		t.Fatalf("freed = %d, want 1", freed)
	}
}

func TestVersionListInvariant(t *testing.T) {
	// After a randomized batch of concurrent commits, every version list must
	// be strictly descending in twOrder, with twOrder <= natOrder everywhere.
	tm := New(Options{Options: mvutil.Options{GCEveryNCommits: -1}})
	const nv = 6
	vars := make([]stm.Var, nv)
	for i := range vars {
		vars[i] = tm.NewVar(0)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			r := uint64(seed)*2654435761 + 12345
			next := func(n int) int {
				r ^= r << 13
				r ^= r >> 7
				r ^= r << 17
				return int(r % uint64(n))
			}
			for i := 0; i < 300; i++ {
				_ = stm.Atomically(tm, false, func(tx stm.Tx) error {
					tx.Read(vars[next(nv)])
					tx.Read(vars[next(nv)])
					tx.Write(vars[next(nv)], i)
					return nil
				})
			}
		}(g + 1)
	}
	wg.Wait()
	for i, v := range vars {
		tv := v.(*twvar)
		prev := uint64(1 << 62)
		for ver := tv.latest.Load(); ver != nil; ver = ver.next.Load() {
			if ver.twOrder >= prev {
				t.Fatalf("var %d: twOrder not strictly descending (%d then %d)", i, prev, ver.twOrder)
			}
			if ver.twOrder > ver.natOrder {
				t.Fatalf("var %d: twOrder %d > natOrder %d", i, ver.twOrder, ver.natOrder)
			}
			prev = ver.twOrder
		}
	}
}

func TestConcurrentCounterExact(t *testing.T) {
	tm := New(Options{})
	x := tm.NewVar(0)
	const goroutines, perG = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				_ = stm.Atomically(tm, false, func(tx stm.Tx) error {
					tx.Write(x, tx.Read(x).(int)+1)
					return nil
				})
			}
		}()
	}
	wg.Wait()
	ro := tm.Begin(true)
	if got := ro.Read(x); got != goroutines*perG {
		t.Fatalf("counter = %v, want %d", got, goroutines*perG)
	}
}

func TestNameAndFlags(t *testing.T) {
	if got := New(Options{}).Name(); got != "twm" {
		t.Fatalf("name = %q", got)
	}
	if got := New(Options{DisableTimeWarp: true}).Name(); got != "twm-notw" {
		t.Fatalf("ablation name = %q", got)
	}
}

func TestHistoryOrdering(t *testing.T) {
	tm := New(Options{Options: mvutil.Options{GCEveryNCommits: -1}})
	tm.EnableHistory()
	x := tm.NewVar(0)
	for i := 1; i <= 4; i++ {
		tx := tm.Begin(false)
		tx.Write(x, i)
		if !tm.Commit(tx) {
			t.Fatalf("commit %d failed", i)
		}
	}
	hist := tm.History(x)
	if len(hist) != 4 {
		t.Fatalf("history length = %d", len(hist))
	}
	for i, rec := range hist {
		if rec.Value != i+1 {
			t.Fatalf("history[%d] = %+v, want value %d", i, rec, i+1)
		}
	}
}

func TestAtomicallyUserError(t *testing.T) {
	tm := newTM()
	x := tm.NewVar(0)
	wantErr := fmt.Errorf("boom")
	err := stm.Atomically(tm, false, func(tx stm.Tx) error {
		tx.Write(x, 42)
		return wantErr
	})
	if err != wantErr {
		t.Fatalf("err = %v", err)
	}
	ro := tm.Begin(true)
	if got := ro.Read(x); got != 0 {
		t.Fatalf("user-aborted write leaked: %v", got)
	}
}
