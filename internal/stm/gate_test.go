package stm_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/stm"
	"repro/internal/stm/stmtest"
)

func TestGateAcquireRelease(t *testing.T) {
	g := stm.NewAdmissionGate(2, time.Second)
	if err := g.Acquire(nil); err != nil {
		t.Fatal(err)
	}
	if err := g.Acquire(nil); err != nil {
		t.Fatal(err)
	}
	if got := g.InFlight(); got != 2 {
		t.Fatalf("InFlight = %d, want 2", got)
	}
	g.Release()
	g.Release()
	if got := g.InFlight(); got != 0 {
		t.Fatalf("InFlight = %d, want 0", got)
	}
	if g.Admitted() != 2 {
		t.Fatalf("Admitted = %d, want 2", g.Admitted())
	}
}

func TestGateOverload(t *testing.T) {
	g := stm.NewAdmissionGate(1, 10*time.Millisecond)
	if err := g.Acquire(nil); err != nil {
		t.Fatal(err)
	}
	err := g.Acquire(nil)
	var ov *stm.OverloadError
	if !errors.As(err, &ov) {
		t.Fatalf("err = %v, want *OverloadError", err)
	}
	if ov.Limit != 1 || ov.Wait != 10*time.Millisecond {
		t.Fatalf("overload = %+v", ov)
	}
	if g.Overloads() != 1 {
		t.Fatalf("Overloads = %d, want 1", g.Overloads())
	}
	g.Release()
}

func TestGateLoadShedding(t *testing.T) {
	g := stm.NewAdmissionGate(1, 0) // maxWait <= 0: refuse immediately
	if err := g.Acquire(nil); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	err := g.Acquire(nil)
	var ov *stm.OverloadError
	if !errors.As(err, &ov) {
		t.Fatalf("err = %v, want *OverloadError", err)
	}
	if d := time.Since(t0); d > 100*time.Millisecond {
		t.Fatalf("load-shedding refusal took %v", d)
	}
	g.Release()
}

func TestGateReleaseWithoutAcquirePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	stm.NewAdmissionGate(1, 0).Release()
}

// TestGateCancelledWhileQueued is the AtomicallyCtx satellite: a call blocked
// in the admission gate must honor cancellation promptly, not only between
// attempts.
func TestGateCancelledWhileQueued(t *testing.T) {
	stmtest.CheckGoroutines(t)
	g := stm.NewAdmissionGate(1, time.Minute)
	if err := g.Acquire(nil); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- g.Acquire(ctx) }()

	// Wait until the second call is queued at the gate, then cancel.
	for i := 0; g.Waiting() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	if g.Waiting() == 0 {
		t.Fatal("second Acquire never queued")
	}
	cancel()
	select {
	case err := <-done:
		var ce *stm.CancelledError
		if !errors.As(err, &ce) || !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want *CancelledError wrapping context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("queued Acquire did not unblock on cancellation")
	}
	if g.Cancels() != 1 {
		t.Fatalf("Cancels = %d, want 1", g.Cancels())
	}
	g.Release()
}

// TestGatedAtomicallyCtxCancelUnblocks drives the same property through the
// full transaction entry point: a gated transaction queued behind a saturated
// gate returns promptly once its context is cancelled.
func TestGatedAtomicallyCtxCancelUnblocks(t *testing.T) {
	stmtest.CheckGoroutines(t)
	tm := core.New(core.Options{})
	v := stm.NewTVar(tm, 0)
	g := stm.NewAdmissionGate(1, time.Minute)

	release := make(chan struct{})
	occupied := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		err := stm.AtomicallyGated(nil, tm, false, g, func(tx stm.Tx) error {
			close(occupied) //twm:allow txpurity test coordination; body runs exactly once
			<-release       //twm:allow txpurity hold the slot with a transaction in flight
			v.Set(tx, 1)
			return nil
		})
		if err != nil {
			t.Errorf("holder: %v", err)
		}
	}()
	<-occupied

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- stm.AtomicallyGated(ctx, tm, false, g, func(tx stm.Tx) error {
			v.Set(tx, 2)
			return nil
		})
	}()
	for i := 0; g.Waiting() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		var ce *stm.CancelledError
		if !errors.As(err, &ce) {
			t.Fatalf("queued gated tx: err = %v, want *CancelledError", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("queued gated transaction did not unblock on cancellation")
	}
	close(release)
	wg.Wait()
}

func TestGatedAtomicallyOverloadRecorded(t *testing.T) {
	tm := core.New(core.Options{})
	v := stm.NewTVar(tm, 0)
	g := stm.NewAdmissionGate(1, 0) // pure load shedding

	release := make(chan struct{})
	occupied := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = stm.AtomicallyGated(nil, tm, false, g, func(tx stm.Tx) error {
			close(occupied) //twm:allow txpurity test coordination; body runs exactly once
			<-release       //twm:allow txpurity hold the slot with a transaction in flight
			v.Set(tx, 1)
			return nil
		})
	}()
	<-occupied

	err := stm.AtomicallyGated(nil, tm, false, g, func(tx stm.Tx) error {
		v.Set(tx, 2)
		return nil
	})
	var ov *stm.OverloadError
	if !errors.As(err, &ov) {
		t.Fatalf("err = %v, want *OverloadError", err)
	}
	close(release)
	wg.Wait()

	// The refusal is visible in the engine's stats under ReasonOverload, so
	// the bench reason histogram picks it up with no extra wiring.
	snap := tm.Stats().Snapshot()
	if snap.ByReason[stm.ReasonOverload.String()] != 1 {
		t.Fatalf("overload not recorded in stats: %+v", snap.ByReason)
	}
}

func TestGateReadOnlyBypass(t *testing.T) {
	tm := core.New(core.Options{})
	v := stm.NewTVar(tm, 7)
	g := stm.NewAdmissionGate(1, 0)
	if err := g.Acquire(nil); err != nil { // saturate the gate
		t.Fatal(err)
	}
	defer g.Release()
	// A read-only transaction must pass a saturated gate untouched.
	var got int
	if err := stm.AtomicallyGated(nil, tm, true, g, func(tx stm.Tx) error {
		got = v.Get(tx)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Fatalf("got %d, want 7", got)
	}
}
