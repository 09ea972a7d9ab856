package engines_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/engines"
	"repro/internal/stm"
	"repro/internal/stm/stmtest"
)

// TestGroupCommitConcurrentSubmitters: concurrent callers drive real commits
// through the combiner on both group-commit engines; every call resolves
// exactly once and the increments sum to the expected total.
func TestGroupCommitConcurrentSubmitters(t *testing.T) {
	for _, name := range engines.GroupCommitSet() {
		t.Run(name, func(t *testing.T) {
			stmtest.CheckGoroutines(t)
			tm, err := engines.New(name)
			if err != nil {
				t.Fatal(err)
			}
			x := stm.NewTVar(tm, 0)
			const producers, perProducer = 8, 25
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perProducer; i++ {
						if err := stm.AtomicallyCtx(context.Background(), tm, false, func(tx stm.Tx) error {
							x.Set(tx, x.Get(tx)+1)
							return nil
						}); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			var got int
			if err := stm.Atomically(tm, true, func(tx stm.Tx) error {
				got = x.Get(tx)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if got != producers*perProducer {
				t.Fatalf("x = %d, want %d", got, producers*perProducer)
			}
			snap := tm.Stats().Snapshot()
			if snap.GroupBatches == 0 || snap.ClockAdvances != snap.GroupBatches {
				t.Fatalf("batch accounting off: batches=%d clockAdvances=%d",
					snap.GroupBatches, snap.ClockAdvances)
			}
		})
	}
}

// TestGroupCommitCancelWhileCommitting: a transaction whose every attempt is
// published to the combiner and refused there (a commit logger that has
// latched a failure) retries until its context is cancelled. A
// cancelled call never abandons a request it already published to a leader:
// it returns *stm.CancelledError only between attempts, with the
// admission-gate slot back, and no goroutine may outlive the test.
func TestGroupCommitCancelWhileCommitting(t *testing.T) {
	for _, name := range engines.GroupCommitSet() {
		t.Run(name, func(t *testing.T) {
			stmtest.CheckGoroutines(t)
			// The latched logger makes every group-commit round refuse its
			// members with ReasonDurability, so every attempt travels the
			// full submit → leader → refuse → retry loop.
			tm, err := engines.New(name, engines.WithLogger(latchedLogger{}))
			if err != nil {
				t.Fatal(err)
			}

			x := stm.NewTVar(tm, 0)
			gate := stm.NewAdmissionGate(1, 0)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan error, 1)
			go func() {
				done <- stm.AtomicallyGated(ctx, tm, false, gate, func(tx stm.Tx) error {
					x.Set(tx, x.Get(tx)+1)
					return nil
				})
			}()

			// Wait until the combiner has demonstrably refused a few rounds.
			deadline := time.Now().Add(5 * time.Second)
			for tm.Stats().Snapshot().ByReason[stm.ReasonDurability.String()] < 3 {
				if time.Now().After(deadline) {
					t.Fatal("no durability refusals observed")
				}
				time.Sleep(time.Millisecond)
			}
			cancel()

			err = <-done
			var ce *stm.CancelledError
			if !errors.As(err, &ce) || !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want *stm.CancelledError wrapping context.Canceled", err)
			}
			if ce.Attempts == 0 || ce.Reason != stm.ReasonDurability {
				t.Fatalf("cancellation reported %d attempts, last reason %v; want the observed durability refusals", ce.Attempts, ce.Reason)
			}
			// The gate slot came back before the call returned.
			if gate.InFlight() != 0 {
				t.Fatalf("gate slot leaked: in-flight = %d", gate.InFlight())
			}
			// The variable was never updated: every attempt was refused.
			var got int
			if err := stm.Atomically(tm, true, func(tx stm.Tx) error {
				got = x.Get(tx)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if got != 0 {
				t.Fatalf("x = %d after perpetual refusal, want 0", got)
			}
		})
	}
}

// latchedLogger is a commit logger that has latched a failure: the admit
// stage refuses every round before anything is appended.
type latchedLogger struct{}

func (latchedLogger) Append([]stm.CommitRecord) (stm.LSN, error) {
	return 0, errLatched
}
func (latchedLogger) Durable(stm.LSN) error { return errLatched }
func (latchedLogger) Err() error            { return errLatched }

var errLatched = errors.New("log latched")
