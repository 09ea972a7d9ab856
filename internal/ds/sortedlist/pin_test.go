package sortedlist

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engines"
	"repro/internal/mvutil"
	"repro/internal/stm"
)

// TestUnlinkedVarsNotPinned: a multi-version engine keeps no variable alive
// on its own account. The next pointers of nodes the list unlinked, and
// variables nobody ever wrote, are garbage once the versions that lead to
// them are collected.
func TestUnlinkedVarsNotPinned(t *testing.T) {
	for _, name := range []string{"twm", "jvstm"} {
		t.Run(name, func(t *testing.T) {
			tm := engines.MustNew(name)
			l := New(tm)
			var freed atomic.Int64
			want := watchUnlinked(t, tm, l, &freed)
			for i := 0; i < 32; i++ {
				runtime.SetFinalizer(tm.NewVar(i), func(stm.Var) { freed.Add(1) })
				want++
			}
			// One pass with no reader bounding it trims the versions that
			// point at the unlinked nodes and takes every written variable,
			// back to one version, out of the collector's queue.
			mvutil.Of(tm).GC()
			for i := 0; i < 100 && freed.Load() < want; i++ {
				runtime.GC()
				time.Sleep(time.Millisecond)
			}
			if got := freed.Load(); got != want {
				t.Fatalf("%d of %d unreachable variables collected", got, want)
			}
			runtime.KeepAlive(l)
		})
	}
}

// watchUnlinked fills l with 0..63, puts a finalizer on the next pointer of
// every odd node, unlinks the odd nodes and reports how many it watches.
func watchUnlinked(t *testing.T, tm stm.TM, l *List, freed *atomic.Int64) int64 {
	t.Helper()
	for k := int64(0); k < 64; k++ {
		if err := stm.Atomically(tm, false, func(tx stm.Tx) error { l.Insert(tx, k); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	var n int64
	for cur := l.head.next; ; {
		var nd *node
		if err := stm.Atomically(tm, true, func(tx stm.Tx) error {
			nd, _ = tx.Read(cur).(*node)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if nd == nil {
			break
		}
		if nd.key%2 == 1 {
			runtime.SetFinalizer(nd.next, func(stm.Var) { freed.Add(1) })
			n++
		}
		cur = nd.next
	}
	for k := int64(1); k < 64; k += 2 {
		if err := stm.Atomically(tm, false, func(tx stm.Tx) error { l.Remove(tx, k); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	return n
}
