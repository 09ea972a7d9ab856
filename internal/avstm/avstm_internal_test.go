package avstm

import (
	"testing"
	"testing/quick"
)

func TestChoosePointProperty(t *testing.T) {
	// choosePoint must return a point strictly inside (lb, ub) whenever the
	// interval contains one, and report failure otherwise.
	f := func(lb uint64, width uint16) bool {
		lb %= 1 << 40
		ub := lb + uint64(width)
		p, ok := choosePoint(lb, ub)
		hasPoint := ub > lb+1
		if ok != hasPoint {
			return false
		}
		if ok && (p <= lb || p >= ub) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChoosePointUnbounded(t *testing.T) {
	p, ok := choosePoint(100, noUpperBound)
	if !ok || p != 100+pointGap {
		t.Fatalf("unbounded choosePoint = %d,%v", p, ok)
	}
}

func TestChoosePointNestedPastCommits(t *testing.T) {
	// Repeated "commit in the past" below a fixed upper bound must keep
	// finding points for many levels (the gap rationale).
	lb, ub := uint64(0), uint64(0)+pointGap
	for depth := 0; depth < 15; depth++ {
		p, ok := choosePoint(lb, ub)
		if !ok {
			t.Fatalf("interval exhausted at depth %d (lb=%d ub=%d)", depth, lb, ub)
		}
		ub = p // next committer must land below this one
	}
}

func TestReaderRegistryCleanup(t *testing.T) {
	tm := New()
	x := tm.NewVar(0).(*avar)

	// Committed reader deregisters.
	ro := tm.Begin(true)
	ro.Read(x)
	if readers(x) != 1 {
		t.Fatalf("reader not registered")
	}
	if !tm.Commit(ro) {
		t.Fatalf("ro commit failed")
	}
	if readers(x) != 0 {
		t.Fatalf("committed reader still registered")
	}

	// Aborted reader deregisters.
	up := tm.Begin(false)
	up.Read(x)
	tm.Abort(up)
	if readers(x) != 0 {
		t.Fatalf("aborted reader still registered")
	}
}

func TestReaderRegistryDedupAndPool(t *testing.T) {
	tm := New()
	x := tm.NewVar(0).(*avar)

	// Re-reading the same variable must not register twice.
	tx := tm.Begin(false).(*txn)
	tx.Read(x)
	tx.Read(x)
	if got := readers(x); got != 1 {
		t.Fatalf("duplicate registration: size = %d, want 1", got)
	}
	if !tm.Commit(tx) {
		t.Fatalf("commit failed")
	}

	// The unlinked node went back to the descriptor's freelist.
	if tx.free == nil {
		t.Fatalf("node not pooled after commit")
	}
	if tx.free.v != nil {
		t.Fatalf("pooled node still pins its variable")
	}
}

// readers counts v's registered readers.
func readers(v *avar) int {
	v.mu.Lock()
	defer v.mu.Unlock()
	total := 0
	for n := v.readers; n != nil; n = n.next {
		total++
	}
	return total
}

func TestTimestampsAdvance(t *testing.T) {
	tm := New()
	x := tm.NewVar(0).(*avar)
	var last uint64
	for i := 1; i <= 4; i++ {
		tx := tm.Begin(false)
		tx.Read(x)
		tx.Write(x, i)
		if !tm.Commit(tx) {
			t.Fatalf("commit %d failed", i)
		}
		if x.wts <= last {
			t.Fatalf("wts not strictly increasing: %d then %d", last, x.wts)
		}
		last = x.wts
	}
	// rts records committed readers at or above the last writer's point.
	ro := tm.Begin(true)
	ro.Read(x)
	if !tm.Commit(ro) {
		t.Fatalf("ro commit failed")
	}
	if x.rts <= x.wts {
		t.Fatalf("rts %d should exceed wts %d after a later reader", x.rts, x.wts)
	}
}
