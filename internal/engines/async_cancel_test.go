package engines_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/engines"
	"repro/internal/mvutil"
	"repro/internal/stm"
	"repro/internal/stm/stmtest"
)

// TestAsyncGroupCommitEngines: async futures drive real commits through the
// combiner on both group-commit engines, and concurrent async submitters sum
// to the expected total.
func TestAsyncGroupCommitEngines(t *testing.T) {
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
						f := stm.AtomicallyAsync(tm, false, func(tx stm.Tx) error {
							x.Set(tx, x.Get(tx)+1)
							return nil
						})
						if err := f.Wait(); err != nil {
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

// TestAsyncCancelWhileGroupCommitting: a transaction whose every attempt is
// published to the combiner and refused there (hard version-budget pressure
// the engine cannot relieve) retries until its context is cancelled. The
// future must resolve with *stm.CancelledError, the admission-gate slot must
// come back, and no goroutine may outlive the test.
func TestAsyncCancelWhileGroupCommitting(t *testing.T) {
	for _, name := range engines.GroupCommitSet() {
		t.Run(name, func(t *testing.T) {
			stmtest.CheckGoroutines(t)
			budget := mvutil.NewVersionBudget(mvutil.BudgetConfig{SoftVersions: 1, HardVersions: 2})
			tm, err := engines.New(name, engines.WithBudget(budget, 0))
			if err != nil {
				t.Fatal(err)
			}
			// An external charge the engine's GC cannot release pins the
			// budget at hard pressure: every group-commit round refuses its
			// members with ReasonMemoryPressure, so every attempt travels the
			// full submit → leader → refuse → retry loop.
			budget.Install(8, 0)

			x := stm.NewTVar(tm, 0)
			gate := stm.NewAdmissionGate(1, 0)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			f := stm.AtomicallyAsyncGated(ctx, tm, false, gate, nil, func(tx stm.Tx) error {
				x.Set(tx, x.Get(tx)+1)
				return nil
			})

			// Wait until the combiner has demonstrably refused a few rounds.
			deadline := time.Now().Add(5 * time.Second)
			for tm.Stats().Snapshot().ByReason[stm.ReasonMemoryPressure.String()] < 3 {
				if time.Now().After(deadline) {
					t.Fatal("no memory-pressure refusals observed")
				}
				time.Sleep(time.Millisecond)
			}
			cancel()

			err = f.Wait()
			var ce *stm.CancelledError
			if !errors.As(err, &ce) || !errors.Is(err, context.Canceled) {
				t.Fatalf("future = %v, want *stm.CancelledError wrapping context.Canceled", err)
			}
			if ce.Attempts == 0 {
				t.Fatal("cancellation reported zero attempts despite observed refusals")
			}
			// The gate slot is returned with the future's resolution.
			for deadline := time.Now().Add(time.Second); gate.InFlight() != 0; {
				if time.Now().After(deadline) {
					t.Fatalf("gate slot leaked: in-flight = %d", gate.InFlight())
				}
				time.Sleep(time.Millisecond)
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
