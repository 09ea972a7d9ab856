package jvstm

import (
	"testing"

	"repro/internal/stm"
)

func bump(t *testing.T, tm *TM, v stm.Var) {
	t.Helper()
	tx := tm.Begin(false)
	tx.Write(v, tx.Read(v).(int)+1)
	if !tm.Commit(tx) {
		t.Fatal("uncontended commit aborted")
	}
}

// TestPassVisitsOnlyWrittenVars: with 10⁵ variables live, a pass after K
// commits on K distinct variables visits at most 2K of them — the written
// ones, not the live set — and leaves in the queue no variable with one
// version.
func TestPassVisitsOnlyWrittenVars(t *testing.T) {
	const live, k = 100_000, 64
	tm := New(Options{GCEveryNCommits: -1})
	vars := make([]stm.Var, live)
	for i := range vars {
		vars[i] = tm.NewVar(0)
	}
	for i := 0; i < k; i++ {
		bump(t, tm, vars[i*(live/k)])
	}
	// A pass visits exactly what is queued when it starts.
	if n := queued(tm); n > 2*k {
		t.Fatalf("pass visits %d variables after %d commits, want <= %d", n, k, 2*k)
	}
	if freed := tm.GC(); freed != k {
		t.Fatalf("pass freed %d versions, want %d", freed, k)
	}
	if n := queued(tm); n != 0 {
		t.Fatalf("%d variables still queued, want 0", n)
	}
	for i := 0; i < k; i++ {
		if v := vars[i*(live/k)].(*jvar); v.queued || tm.VersionCount(v) != 1 {
			t.Fatalf("var %d: queued=%v versions=%d", v.id, v.queued, tm.VersionCount(v))
		}
	}
}

// TestQueueKeepsWhatItCannotTrim: a variable whose old version an active
// snapshot still needs stays queued until a pass can trim it.
func TestQueueKeepsWhatItCannotTrim(t *testing.T) {
	tm := New(Options{GCEveryNCommits: -1})
	x := tm.NewVar(0)
	reader := tm.Begin(true)
	bump(t, tm, x)
	tm.GC()
	if xv := x.(*jvar); tm.VersionCount(x) != 2 || !xv.queued || queued(tm) != 1 {
		t.Fatalf("versions=%d flag=%v queue=%d with the reader active", tm.VersionCount(x), xv.queued, queued(tm))
	}
	tm.Commit(reader)
	tm.GC()
	if xv := x.(*jvar); tm.VersionCount(x) != 1 || xv.queued || queued(tm) != 0 {
		t.Fatalf("versions=%d flag=%v queue=%d after the reader left", tm.VersionCount(x), xv.queued, queued(tm))
	}
}

// queued reports how many variables are queued: what the next pass visits.
func queued(tm *TM) (n int) {
	tm.dirty.Drain(func(*jvar) bool { n++; return true })
	return n
}
