package stm

// Regression tests for the three transaction-lifecycle bugs fixed for the
// traffic-serving front end (cmd/twm-server):
//
//  1. a non-retry body panic leaked the pooled descriptor (run only recycled
//     on normal return from runOnce),
//  2. a gated call must hold its admission slot for the whole call and give
//     it back on every exit, a body panic included,
//  3. AdmissionGate.Acquire's pure-shed path missed a slot freed between the
//     fast path and the refusal, shedding load with a free slot in hand.
//
// Each was harmless in a closed-loop benchmark (bodies there never panic and
// pure-shed gates are rare) and fatal in a server.

import (
	"context"
	"errors"
	"testing"
)

// recycleTM is fakeTM plus descriptor pooling: it tracks how many descriptors
// were ever allocated and how many Recycle calls returned one to the free
// list, so tests can assert the pool stays balanced across every exit path of
// the retry loop.
type recycleTM struct {
	fakeTM
	allocated int
	recycled  int
	free      []*fakeTx
}

func (p *recycleTM) Begin(readOnly bool) Tx {
	p.stats.RecordStart()
	if n := len(p.free); n > 0 {
		tx := p.free[n-1]
		p.free = p.free[:n-1]
		tx.readOnly = readOnly
		return tx
	}
	p.allocated++
	return &fakeTx{tm: &p.fakeTM, readOnly: readOnly, writes: make(map[*fakeVar]Value)}
}

func (p *recycleTM) Recycle(tx Tx) {
	t := tx.(*fakeTx)
	clear(t.writes)
	p.recycled++
	p.free = append(p.free, t)
}

// TestPanicPathRecyclesDescriptor pins bug 1: a body panic that is not a
// retry signal must still return the descriptor to the pool (the attempt is
// already aborted and the Tx can never be observed again). Before the fix
// every such panic permanently dropped one descriptor.
func TestPanicPathRecyclesDescriptor(t *testing.T) {
	tm := &recycleTM{}
	boom := errors.New("boom")
	const rounds = 32
	for i := 0; i < rounds; i++ {
		func() {
			defer func() {
				if r := recover(); r != boom {
					t.Fatalf("recovered %v, want the body's panic value", r)
				}
			}()
			_ = Atomically(tm, false, func(Tx) error { panic(boom) })
		}()
	}
	if tm.recycled != rounds {
		t.Fatalf("recycled %d descriptors across %d panicking calls", tm.recycled, rounds)
	}
	if tm.allocated != 1 {
		t.Fatalf("allocated %d descriptors, want 1 (pool must be reused across panics)", tm.allocated)
	}
	if tm.aborts != rounds {
		t.Fatalf("aborts = %d, want %d (panic path must abort before recycling)", tm.aborts, rounds)
	}
}

// TestPanicPathRecycleOrdering asserts the panic path recycles after the
// abort, mirroring the documented TxRecycler contract ("after the attempt has
// fully finished").
func TestPanicPathRecycleOrdering(t *testing.T) {
	tm := &recycleTM{}
	defer func() { recover() }()
	_ = Atomically(tm, false, func(Tx) error {
		if tm.recycled != 0 {
			t.Error("recycled before the attempt finished")
		}
		panic("unwind")
	})
}

// TestGatedPanicReleasesSlot: the retry loop's deferred gate release runs
// during the panic unwind, so a panicking gated transaction must not leak its
// admission slot — by the time the caller's recover sees the panic the slot is
// free, the attempt aborted and the descriptor back in the pool.
func TestGatedPanicReleasesSlot(t *testing.T) {
	tm := &recycleTM{}
	g := NewAdmissionGate(1, 0)
	func() {
		defer func() {
			if r := recover(); r != "gated kaboom" {
				t.Fatalf("recovered %v, want the body's panic value", r)
			}
			if g.InFlight() != 0 {
				t.Fatalf("gate slot still held when the panic reached the caller: in-flight = %d", g.InFlight())
			}
		}()
		_ = AtomicallyGated(context.Background(), tm, false, g, func(Tx) error {
			panic("gated kaboom")
		})
	}()
	if tm.aborts != 1 || tm.recycled != 1 {
		t.Fatalf("aborts = %d, recycled = %d, want 1 and 1", tm.aborts, tm.recycled)
	}
	if err := g.Acquire(nil); err != nil {
		t.Fatalf("gate unusable after panic: %v", err)
	}
	g.Release()
}

// TestGatedHoldsSlotAcrossRetries: a gated call occupies its slot from
// admission to return — through every aborted attempt and the backoff between
// them — so a second submitter is shed while the first is still retrying, and
// the slot is free the moment the first returns.
func TestGatedHoldsSlotAcrossRetries(t *testing.T) {
	tm := &fakeTM{failCommits: 3}
	g := NewAdmissionGate(1, 0)
	release := make(chan struct{})
	entered := make(chan struct{})
	runs := 0
	first := make(chan error, 1)
	go func() {
		first <- AtomicallyGated(context.Background(), tm, false, g, func(Tx) error {
			runs++
			if g.InFlight() != 1 {
				t.Errorf("attempt %d ran outside the slot: in-flight = %d", runs, g.InFlight())
			}
			if runs == 2 {
				close(entered) //twm:impure test coordination; guarded to the second attempt
				<-release      //twm:impure hold the slot mid-retry
			}
			return nil
		})
	}()
	<-entered
	// With maxWait=0 the saturated gate sheds the second submitter.
	var oe *OverloadError
	if err := AtomicallyGated(context.Background(), tm, false, g, func(Tx) error { return nil }); !errors.As(err, &oe) {
		t.Fatalf("second call = %v, want *OverloadError", err)
	}
	close(release)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if runs != 4 {
		t.Fatalf("body ran %d times, want 4 (three failed commits)", runs)
	}
	if g.InFlight() != 0 {
		t.Fatalf("slot still held after the call returned: in-flight = %d", g.InFlight())
	}
}

// TestAcquirePureShedReoffer pins bug 3: with maxWait <= 0, a slot freed
// between Acquire's saturated fast path and its refusal must be taken, not
// reported as overload. The test hook releases the only slot at exactly the
// racing instant.
func TestAcquirePureShedReoffer(t *testing.T) {
	g := NewAdmissionGate(1, 0)
	if err := g.Acquire(nil); err != nil {
		t.Fatal(err)
	}
	testHookShedRecheck = func() { g.Release() }
	defer func() { testHookShedRecheck = nil }()
	if err := g.Acquire(nil); err != nil {
		t.Fatalf("Acquire = %v, want admission (a slot was free at decision time)", err)
	}
	testHookShedRecheck = nil
	if g.InFlight() != 1 {
		t.Fatalf("in-flight = %d, want 1", g.InFlight())
	}
	if got := g.Overloads(); got != 0 {
		t.Fatalf("overloads = %d, want 0 (the shed would have been spurious)", got)
	}
	g.Release()

	// A genuinely saturated pure-shed gate still refuses immediately.
	if err := g.Acquire(nil); err != nil {
		t.Fatal(err)
	}
	var oe *OverloadError
	if err := g.Acquire(nil); !errors.As(err, &oe) {
		t.Fatalf("saturated Acquire = %v, want *OverloadError", err)
	}
	g.Release()
}
