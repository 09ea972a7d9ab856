package core

import (
	"testing"

	"repro/internal/stm"
)

// coldVars creates n variables nobody writes.
func coldVars(tm *TM, n int) []stm.Var {
	vars := make([]stm.Var, n)
	for i := range vars {
		vars[i] = tm.NewVar(0)
	}
	return vars
}

// checkQueue fails unless every queued variable is flagged and still has
// something for the collector to do: more than one version, or one off its
// root.
func checkQueue(t *testing.T, tm *TM) {
	t.Helper()
	tm.dirty.Drain(func(v *twvar) bool {
		if !v.meta.queued {
			t.Errorf("var %d queued without its flag", v.meta.id)
		}
		if head := v.latest.Load(); head == &v.root && head.next.Load() == nil {
			t.Errorf("var %d queued with one version on its root", v.meta.id)
		}
		return true
	})
}

// TestPassVisitsOnlyWrittenVars: with 10⁵ variables live, a pass after K
// commits on K distinct variables visits at most K of them — the written
// ones, not the live set — and, with no reader bounding it, leaves every one
// re-rooted and out of the queue.
func TestPassVisitsOnlyWrittenVars(t *testing.T) {
	const live, k = 100_000, 64
	tm := newTM()
	vars := coldVars(tm, live)
	for i := 0; i < k; i++ {
		bump(t, tm, vars[i*(live/k)])
	}
	// A pass visits exactly what is queued when it starts.
	if n := queued(tm); n > k {
		t.Fatalf("pass visits %d variables after %d commits, want <= %d", n, k, k)
	}
	if freed := tm.GC(); freed != k {
		t.Fatalf("pass freed %d versions, want %d", freed, k)
	}
	checkQueue(t, tm)
	for i := 0; i < k; i++ {
		v := vars[i*(live/k)].(*twvar)
		if v.meta.queued || v.latest.Load() != &v.root || tm.VersionCount(v) != 1 {
			t.Fatalf("written var %d: queued=%v on root=%v versions=%d, want re-rooted and out of the queue",
				v.meta.id, v.meta.queued, v.latest.Load() == &v.root, tm.VersionCount(v))
		}
	}
	if n := queued(tm); n != 0 {
		t.Fatalf("%d variables still queued after one pass, want 0", n)
	}
}

// TestQueueKeepsWhatItCannotTrim: a variable whose extra versions an active
// snapshot still needs, or whose lock is busy, stays queued until a pass can
// finish it — and the first pass that can, does.
func TestQueueKeepsWhatItCannotTrim(t *testing.T) {
	tm := newTM()
	x, y := tm.NewVar(0), tm.NewVar(0)
	xv, yv := x.(*twvar), y.(*twvar)
	bump(t, tm, y)
	if !yv.owner.TryLockGC() {
		t.Fatal("could not take y's lock")
	}
	tm.GC() // y's root is free to trim, but its lock is busy
	yv.owner.UnlockGC()
	if n := tm.VersionCount(y); n != 2 || !yv.meta.queued {
		t.Fatalf("y after a pass that found it locked: %d versions, queued=%v", n, yv.meta.queued)
	}
	reader := tm.Begin(true)
	bump(t, tm, x)
	tm.GC() // the reader still needs x's root
	if n := tm.VersionCount(x); n != 2 || !xv.meta.queued {
		t.Fatalf("x with a reader on its root: %d versions, queued=%v", n, xv.meta.queued)
	}
	tm.Commit(reader)
	tm.GC()
	for _, tv := range []*twvar{xv, yv} {
		if tv.meta.queued || tv.latest.Load() != &tv.root || tm.VersionCount(tv) != 1 {
			t.Fatalf("var %d one pass after the reader left: queued=%v on root=%v versions=%d",
				tv.meta.id, tv.meta.queued, tv.latest.Load() == &tv.root, tm.VersionCount(tv))
		}
	}
	checkQueue(t, tm)
}

// BenchmarkGCPass prices one collector pass with 10⁵ variables live and 64
// written since the previous pass, each of which the pass trims and re-roots
// in one visit: visited/pass is 64.
func BenchmarkGCPass(b *testing.B) {
	const live, dirty = 100_000, 64
	tm := newTM()
	vars := coldVars(tm, live)
	next, visited := 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < dirty; j++ {
			bump(b, tm, vars[next])
			next = (next + 1) % live
		}
		visited += queued(tm)
		b.StartTimer()
		tm.GC()
	}
	b.ReportMetric(float64(visited)/float64(b.N), "visited/pass")
}

// queued reports how many variables are queued: what the next pass visits.
func queued(tm *TM) (n int) {
	tm.dirty.Drain(func(*twvar) bool { n++; return true })
	return n
}
