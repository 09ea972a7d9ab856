package health

import (
	"encoding/json"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/jvstm"
	"repro/internal/mvutil"
	"repro/internal/stm"
	"repro/internal/stm/stmtest"
)

// collect is a test AlertFunc capturing transitions.
type collect struct{ alerts []Alert }

func (c *collect) fn(a Alert) { c.alerts = append(c.alerts, a) }

func (c *collect) last() (Alert, bool) {
	if len(c.alerts) == 0 {
		return Alert{}, false
	}
	return c.alerts[len(c.alerts)-1], true
}

func TestTargetOf(t *testing.T) {
	for _, tm := range []stm.TM{
		core.New(core.Options{}),
		jvstm.New(jvstm.Options{}),
	} {
		tgt := TargetOf(tm)
		if tgt.Name != tm.Name() || tgt.Stats == nil {
			t.Fatalf("%s: bad basic target %+v", tm.Name(), tgt)
		}
		if tgt.Clock == nil || tgt.Clock() == 0 {
			t.Errorf("%s: no clock capability", tm.Name())
		}
		if tgt.Active == nil {
			t.Errorf("%s: no active-set capability", tm.Name())
		}
	}
}

func TestWatchdogLivelock(t *testing.T) {
	var stats stm.Stats
	c := &collect{}
	w := New(Config{RaiseAfter: 2, ClearAfter: 2, MinAborts: 10, OnAlert: []AlertFunc{c.fn}},
		Target{Name: "t", Stats: &stats})

	abortStorm := func() {
		for i := 0; i < 20; i++ {
			stats.RecordStart()
			stats.RecordAbort(stm.ReasonReadConflict)
		}
	}
	abortStorm()
	w.Step()
	if w.Active("t", CondLivelock) {
		t.Fatal("raised after one bad window (RaiseAfter=2)")
	}
	abortStorm()
	w.Step()
	if !w.Active("t", CondLivelock) {
		t.Fatal("not raised after two bad windows")
	}
	if a, ok := c.last(); !ok || !a.Raised || a.Cond != CondLivelock || a.Target != "t" {
		t.Fatalf("bad raise alert %+v", c.alerts)
	}

	// Commits resume: two good windows clear it.
	stats.RecordStart()
	stats.RecordCommit(false)
	w.Step()
	if !w.Active("t", CondLivelock) {
		t.Fatal("cleared after one good window (ClearAfter=2)")
	}
	w.Step()
	if w.Active("t", CondLivelock) {
		t.Fatal("not cleared after two good windows")
	}
	if a, ok := c.last(); !ok || a.Raised || a.Cond != CondLivelock {
		t.Fatalf("bad clear alert %+v", c.alerts)
	}
}

func TestWatchdogHysteresisInterrupted(t *testing.T) {
	var stats stm.Stats
	w := New(Config{RaiseAfter: 3, MinAborts: 10}, Target{Name: "t", Stats: &stats})
	bad := func() {
		for i := 0; i < 10; i++ {
			stats.RecordAbort(stm.ReasonReadConflict)
		}
	}
	bad()
	w.Step()
	bad()
	w.Step()
	stats.RecordCommit(false) // good window resets the bad streak
	w.Step()
	bad()
	w.Step()
	bad()
	w.Step()
	if w.Active("t", CondLivelock) {
		t.Fatal("raised despite interrupted bad streak")
	}
}

func TestWatchdogClockStall(t *testing.T) {
	var stats stm.Stats
	w := New(Config{RaiseAfter: 2}, Target{Name: "t", Stats: &stats})
	for i := 0; i < 2; i++ {
		stats.RecordStart() // attempts enter, nothing ever finishes
		w.Step()
	}
	if !w.Active("t", CondClockStall) {
		t.Fatal("clock stall not raised")
	}
	// Finishing anything (even an abort) is progress.
	stats.RecordAbort(stm.ReasonUser)
	w.Step()
	w.Step()
	if w.Active("t", CondClockStall) {
		t.Fatal("clock stall not cleared")
	}
}

// TestWatchdogClockStallBatchedAdvance: a clocked target whose commit clock
// keeps moving is never a stall, even across windows that see starts but no
// finished transactions — exactly the window a group-commit leader produces
// between a batch's single clock advance and the member commits being
// recorded. A genuinely frozen clock still raises.
func TestWatchdogClockStallBatchedAdvance(t *testing.T) {
	var stats stm.Stats
	var clock atomic.Uint64
	clock.Store(1)
	w := New(Config{RaiseAfter: 2}, Target{Name: "t", Stats: &stats, Clock: clock.Load})

	// Batched commit stage alive: attempts start, counters lag, clock ticks.
	for i := 0; i < 4; i++ {
		stats.RecordStart()
		clock.Add(1)
		w.Step()
	}
	if w.Active("t", CondClockStall) {
		t.Fatal("stall raised while the commit clock was advancing")
	}

	// Genuine wedge: starts with a motionless clock and nothing finishing.
	for i := 0; i < 2; i++ {
		stats.RecordStart()
		w.Step()
	}
	if !w.Active("t", CondClockStall) {
		t.Fatal("genuine stall not raised on a clocked target")
	}

	// A batch lands: one tick, several commits; two good windows clear it.
	clock.Add(1)
	for i := 0; i < 3; i++ {
		stats.RecordCommit(false)
	}
	w.Step()
	w.Step()
	if w.Active("t", CondClockStall) {
		t.Fatal("stall not cleared after a batched advance landed")
	}
}

// TestWatchdogCommitsPerTick: the snapshot surfaces the last window's commits
// per clock tick — the watchdog-visible mean batch size.
func TestWatchdogCommitsPerTick(t *testing.T) {
	var stats stm.Stats
	var clock atomic.Uint64
	clock.Store(1)
	w := New(Config{}, Target{Name: "t", Stats: &stats, Clock: clock.Load})

	for i := 0; i < 8; i++ {
		stats.RecordStart()
		stats.RecordCommit(false)
	}
	clock.Add(2) // two batches carried eight commits
	w.Step()
	snap := w.Snapshot()
	if got := snap.Targets[0].CommitsPerTick; got != 4 {
		t.Fatalf("commits per tick = %v, want 4", got)
	}

	// A tickless window carries the previous figure rather than resetting it.
	w.Step()
	if got := w.Snapshot().Targets[0].CommitsPerTick; got != 4 {
		t.Fatalf("commits per tick after idle window = %v, want 4", got)
	}
}

func TestWatchdogStuckSnapshot(t *testing.T) {
	var stats stm.Stats
	active := new(mvutil.ActiveSet)
	var clock atomic.Uint64
	clock.Store(1)
	w := New(Config{RaiseAfter: 2, StuckClockLag: 100, OnAlert: nil},
		Target{Name: "t", Stats: &stats, Clock: clock.Load, Active: active})

	var pinned mvutil.Slot
	active.Register(&pinned, 1, false)
	clock.Store(500) // snapshot now lags by 499 >= 100
	w.Step()
	w.Step()
	if !w.Active("t", CondStuck) {
		t.Fatal("stuck snapshot not raised")
	}
	active.Unregister(&pinned)
	w.Step()
	w.Step()
	if w.Active("t", CondStuck) {
		t.Fatal("stuck snapshot not cleared after unpin")
	}
}

func TestSnapshotJSON(t *testing.T) {
	tm := core.New(core.Options{})
	v := stm.NewTVar(tm, 0)
	if err := stm.Atomically(tm, false, func(tx stm.Tx) error {
		v.Set(tx, 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	w := New(Config{}, TargetOf(tm))
	w.Step()
	out, err := json.Marshal(w.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"name":"twm"`, `"commits":1`, `"clock"`} {
		if !containsStr(string(out), want) {
			t.Errorf("snapshot JSON missing %s: %s", want, out)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestWatchdogStartStopNoLeak(t *testing.T) {
	stmtest.CheckGoroutines(t)
	var stats stm.Stats
	w := New(Config{SampleEvery: time.Millisecond}, Target{Name: "t", Stats: &stats})
	w.Start()
	time.Sleep(10 * time.Millisecond)
	w.Stop()
	w.Stop() // idempotent
}

func TestWatchdogStopWithoutStart(t *testing.T) {
	w := New(Config{}, Target{Name: "t", Stats: new(stm.Stats)})
	w.Stop() // must not hang
}
