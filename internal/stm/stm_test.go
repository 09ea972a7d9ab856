package stm

import (
	"errors"
	"testing"
	"testing/quick"
	"unsafe"
)

// fakeTM is a minimal in-memory TM used to test the Atomically driver without
// pulling in a real engine (engines live above this package).
type fakeTM struct {
	stats        Stats
	failCommits  int // number of Commits to reject before succeeding
	commits      int
	aborts       int
	retryInBody  int // number of body executions that should Retry first
	bodyAttempts int
}

type fakeVar struct{ val Value }

type fakeTx struct {
	tm       *fakeTM
	readOnly bool
	writes   map[*fakeVar]Value
}

func (f *fakeTM) Name() string { return "fake" }
func (f *fakeTM) NewVar(initial Value) Var {
	return &fakeVar{val: initial}
}
func (f *fakeTM) Begin(readOnly bool) Tx {
	f.stats.RecordStart()
	return &fakeTx{tm: f, readOnly: readOnly, writes: make(map[*fakeVar]Value)}
}
func (f *fakeTM) Commit(tx Tx) bool {
	if f.failCommits > 0 {
		f.failCommits--
		f.stats.RecordAbort(ReasonWriteConflict)
		return false
	}
	t := tx.(*fakeTx)
	for v, val := range t.writes {
		v.val = val
	}
	f.commits++
	f.stats.RecordCommit(t.readOnly)
	return true
}
func (f *fakeTM) Abort(Tx)      { f.aborts++ }
func (f *fakeTM) Stats() *Stats { return &f.stats }

func (t *fakeTx) Read(v Var) Value {
	fv := v.(*fakeVar)
	if val, ok := t.writes[fv]; ok {
		return val
	}
	return fv.val
}
func (t *fakeTx) Write(v Var, val Value) { t.writes[v.(*fakeVar)] = val }
func (t *fakeTx) ReadOnly() bool         { return t.readOnly }

func TestAtomicallyRetriesFailedCommits(t *testing.T) {
	tm := &fakeTM{failCommits: 3}
	v := tm.NewVar(0)
	runs := 0
	if err := Atomically(tm, false, func(tx Tx) error {
		runs++
		tx.Write(v, runs)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if runs != 4 {
		t.Fatalf("body ran %d times, want 4", runs)
	}
	if tm.commits != 1 {
		t.Fatalf("commits = %d", tm.commits)
	}
}

func TestAtomicallyRetrySignal(t *testing.T) {
	tm := &fakeTM{}
	tries := 0
	if err := Atomically(tm, false, func(Tx) error {
		tries++
		if tries < 3 {
			Retry(ReasonUser)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if tries != 3 {
		t.Fatalf("tries = %d", tries)
	}
	if tm.aborts != 2 {
		t.Fatalf("aborts (cleanups) = %d, want 2", tm.aborts)
	}
}

func TestAtomicallyUserErrorNoRetry(t *testing.T) {
	tm := &fakeTM{}
	boom := errors.New("boom")
	runs := 0
	err := Atomically(tm, false, func(Tx) error {
		runs++
		return boom
	})
	if !errors.Is(err, boom) || runs != 1 {
		t.Fatalf("err=%v runs=%d", err, runs)
	}
	if tm.aborts != 1 {
		t.Fatalf("user error must abort, aborts = %d", tm.aborts)
	}
}

func TestAtomicallyForeignPanicPropagates(t *testing.T) {
	tm := &fakeTM{}
	defer func() {
		if r := recover(); r != "kaboom" {
			t.Fatalf("recovered %v", r)
		}
		if tm.aborts != 1 {
			t.Fatalf("foreign panic must still clean up, aborts = %d", tm.aborts)
		}
	}()
	_ = Atomically(tm, false, func(Tx) error { panic("kaboom") })
}

func TestStatsCountersAndReset(t *testing.T) {
	var s Stats
	s.RecordStart()
	s.RecordStart()
	s.RecordCommit(true)
	s.RecordAbort(ReasonTriad)
	s.RecordAbort(ReasonTriad)
	s.RecordAbort(ReasonReadConflict)
	snap := s.Snapshot()
	if snap.Starts != 2 || snap.Commits != 1 || snap.ROCommits != 1 || snap.Aborts != 3 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.ByReason["triad"] != 2 || snap.ByReason["read-conflict"] != 1 {
		t.Fatalf("byReason = %v", snap.ByReason)
	}
	if got := snap.AbortRate(); got != 0.75 {
		t.Fatalf("abort rate = %v, want 0.75", got)
	}
	s.Reset()
	if s.Snapshot().Starts != 0 || s.Snapshot().Aborts != 0 {
		t.Fatalf("reset failed: %+v", s.Snapshot())
	}
}

func TestAbortRateEmpty(t *testing.T) {
	var s Stats
	if got := s.Snapshot().AbortRate(); got != 0 {
		t.Fatalf("abort rate = %v", got)
	}
}

// TestStatShardPadded pins the hand-counted tail pad of StatShard: a stripe
// must fill whole 128-byte units and leave at least 128 bytes after its
// counters, or two stripes share a line when Stats sits off a 128-byte
// boundary; and shard 0 must start 128 bytes into Stats.
func TestStatShardPadded(t *testing.T) {
	shard := unsafe.Sizeof(StatShard{})
	if shard%128 != 0 {
		t.Fatalf("sizeof(StatShard) = %d, not a multiple of 128: recount the scalar counters in its pad", shard)
	}
	var s StatShard
	if counters := unsafe.Offsetof(s.reRoots) + unsafe.Sizeof(s.reRoots); shard-counters < 128 {
		t.Fatalf("StatShard leaves %d bytes after its counters, want at least 128", shard-counters)
	}
	if off := unsafe.Offsetof(Stats{}.shards); off < 128 {
		t.Fatalf("Stats.shards at offset %d, want at least 128", off)
	}
	if got := unsafe.Sizeof(Stats{}.shards); got != statShards*shard {
		t.Fatalf("sizeof(Stats.shards) = %d, want %d", got, statShards*shard)
	}
}

func TestAbortReasonStrings(t *testing.T) {
	for r := AbortReason(0); r < numAbortReasons; r++ {
		if r.String() == "unknown" {
			t.Fatalf("reason %d has no label", r)
		}
	}
	if AbortReason(200).String() != "unknown" {
		t.Fatalf("out-of-range reason should be unknown")
	}
}

func TestProfilerBreakdown(t *testing.T) {
	var p Profiler
	p.AddRead(2000)
	p.AddReadSetVal(1000)
	p.AddWriteSetVal(500)
	p.AddCommit(1500)
	p.AddTx()
	b := p.Snapshot()
	if b.ReadUS != 2.0 || b.ReadSetValUS != 1.0 || b.WriteSetValUS != 0.5 || b.CommitUS != 1.5 {
		t.Fatalf("breakdown = %+v", b)
	}
	if b.TotalUS() != 5.0 {
		t.Fatalf("total = %v", b.TotalUS())
	}
	p.Reset()
	if b := p.Snapshot(); b.Txs != 0 || b.TotalUS() != 0 {
		t.Fatalf("reset failed: %+v", b)
	}
}

func TestProfilerEmptySnapshot(t *testing.T) {
	var p Profiler
	if b := p.Snapshot(); b.TotalUS() != 0 {
		t.Fatalf("empty profiler = %+v", b)
	}
}

func TestTVarTypedAccess(t *testing.T) {
	tm := &fakeTM{}
	v := NewTVar(tm, "hello")
	if err := Atomically(tm, false, func(tx Tx) error {
		if got := v.Get(tx); got != "hello" {
			t.Errorf("get = %q", got)
		}
		v.Set(tx, "world")
		if got := v.Get(tx); got != "world" {
			t.Errorf("get after set = %q", got)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if v.Raw() == nil {
		t.Fatalf("Raw returned nil")
	}
}

func TestTVarZeroValueForNil(t *testing.T) {
	tm := &fakeTM{}
	v := NewTVar[*int](tm, nil)
	_ = Atomically(tm, true, func(tx Tx) error {
		if got := v.Get(tx); got != nil {
			t.Errorf("nil-valued TVar = %v", got)
		}
		return nil
	})
}

func TestBackoffTerminatesAndGrows(t *testing.T) {
	var b Backoff
	for i := 0; i < 20; i++ {
		b.Wait() // must not hang even deep into the schedule
	}
	b.Reset()
	if b.attempt != 0 {
		t.Fatalf("reset failed")
	}
}

func TestBackoffWindowMonotonicProperty(t *testing.T) {
	// Property: the backoff window shift is capped and non-decreasing in the
	// attempt number.
	f := func(a uint8) bool {
		shift := int(a) - backoffYields
		if shift < 0 {
			return true
		}
		if shift > backoffMaxShift {
			shift = backoffMaxShift
		}
		return shift <= backoffMaxShift && shift >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
