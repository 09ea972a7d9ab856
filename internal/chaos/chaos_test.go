package chaos_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/engines"
	"repro/internal/stm"
)

func TestChaosInjectsSpuriousAborts(t *testing.T) {
	tm := chaos.New(engines.MustNew("twm"), chaos.Options{Seed: 42, AbortEvery: 3})
	v := tm.NewVar(0)
	const calls = 20
	for i := 0; i < calls; i++ {
		if err := stm.Atomically(tm, false, func(tx stm.Tx) error {
			tx.Write(v, tx.Read(v).(int)+1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Every call still commits (aborts only force retries)...
	var final int
	_ = stm.Atomically(tm, true, func(tx stm.Tx) error {
		final = tx.Read(v).(int)
		return nil
	})
	if final != calls {
		t.Fatalf("final value %d, want %d: injected aborts must not lose updates", final, calls)
	}
	// ...and the injector actually fired (2 barriers per update attempt, every
	// 3rd barrier aborts).
	if got := tm.Injected().Aborts.Load(); got == 0 {
		t.Fatalf("no spurious aborts injected")
	}
}

func TestChaosCommitFailEvery(t *testing.T) {
	tm := chaos.New(engines.MustNew("twm"), chaos.Options{Seed: 7, CommitFailEvery: 2})
	v := tm.NewVar(0)
	const calls = 10
	totalAttempts := 0
	for i := 0; i < calls; i++ {
		attempts := 0
		if err := stm.Atomically(tm, false, func(tx stm.Tx) error {
			attempts++
			tx.Write(v, tx.Read(v).(int)+1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		// Deterministic relenting: with Every=2 and a single goroutine, two
		// consecutive attempts cannot both land on an even counter value.
		if attempts > 2 {
			t.Fatalf("call needed %d attempts; CommitFailEvery=2 must relent after one failure", attempts)
		}
		totalAttempts += attempts
	}
	fails := tm.Injected().CommitFails.Load()
	if fails == 0 {
		t.Fatalf("no commit failures injected")
	}
	if int(fails) != totalAttempts-calls {
		t.Fatalf("injected %d commit fails but saw %d retries", fails, totalAttempts-calls)
	}
	var final int
	_ = stm.Atomically(tm, true, func(tx stm.Tx) error {
		final = tx.Read(v).(int)
		return nil
	})
	if final != calls {
		t.Fatalf("final value %d, want %d: forced commit failures must abort cleanly", final, calls)
	}
}

func TestChaosCommitFailureReportsReasonChaos(t *testing.T) {
	// The retry loop must observe injected commit failures as ReasonChaos, not
	// as the inner engine's (stale or absent) reason. Every commit fails, so
	// the call ends on its deadline and the error carries the last reason.
	tm := chaos.New(engines.MustNew("twm"), chaos.Options{Seed: 7, CommitFailEvery: 1})
	v := tm.NewVar(0)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err := stm.AtomicallyCtx(ctx, tm, false, func(tx stm.Tx) error {
		tx.Write(v, tx.Read(v).(int)+1)
		return nil
	})
	var ce *stm.CancelledError
	if !errors.As(err, &ce) || ce.Attempts == 0 {
		t.Fatalf("err = %v, want *CancelledError after at least one attempt", err)
	}
	if ce.Reason != stm.ReasonChaos {
		t.Fatalf("observed reason %v, want chaos", ce.Reason)
	}
}

func TestChaosDeterministicForSeed(t *testing.T) {
	// Two wrappers with the same seed driven through an identical
	// single-goroutine schedule must inject the identical fault sequence.
	run := func(seed uint64) (aborts, fails uint64, final int) {
		tm := chaos.New(engines.MustNew("tl2"), chaos.Options{
			Seed:           seed,
			AbortProb:      0.2,
			CommitFailProb: 0.2,
		})
		v := tm.NewVar(0)
		for i := 0; i < 50; i++ {
			_ = stm.Atomically(tm, false, func(tx stm.Tx) error {
				tx.Write(v, tx.Read(v).(int)+1)
				return nil
			})
		}
		_ = stm.Atomically(tm, true, func(tx stm.Tx) error {
			final = tx.Read(v).(int)
			return nil
		})
		return tm.Injected().Aborts.Load(), tm.Injected().CommitFails.Load(), final
	}
	a1, f1, v1 := run(99)
	a2, f2, v2 := run(99)
	if a1 != a2 || f1 != f2 || v1 != v2 {
		t.Fatalf("same seed diverged: (%d,%d,%d) vs (%d,%d,%d)", a1, f1, v1, a2, f2, v2)
	}
	if a1 == 0 && f1 == 0 {
		t.Fatalf("probabilistic injection never fired over 50 calls")
	}
	a3, f3, _ := run(100)
	if a1 == a3 && f1 == f3 {
		t.Logf("note: seeds 99 and 100 injected identical counts (possible, just unusual)")
	}
}

func TestChaosDelaysAndStalls(t *testing.T) {
	tm := chaos.New(engines.MustNew("norec"), chaos.Options{
		Seed:      3,
		DelayProb: 1, // Delay 0: yield instead of sleeping
		StallProb: 1, // Stall 0: yield instead of sleeping
	})
	v := tm.NewVar(0)
	for i := 0; i < 5; i++ {
		if err := stm.Atomically(tm, false, func(tx stm.Tx) error {
			tx.Write(v, tx.Read(v).(int)+1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if tm.Injected().Delays.Load() == 0 {
		t.Fatalf("DelayProb=1 injected no delays")
	}
	if tm.Injected().Stalls.Load() == 0 {
		t.Fatalf("StallProb=1 injected no stalls")
	}
}

func TestChaosReadOnlyCommitsNeverFail(t *testing.T) {
	tm := chaos.New(engines.MustNew("twm"), chaos.Options{Seed: 5, CommitFailEvery: 1})
	v := tm.NewVar(7)
	for i := 0; i < 10; i++ {
		attempts := 0
		if err := stm.Atomically(tm, true, func(tx stm.Tx) error {
			attempts++
			_ = tx.Read(v)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if attempts != 1 {
			t.Fatalf("read-only tx retried %d times under CommitFailEvery=1", attempts)
		}
	}
	if tm.Injected().CommitFails.Load() != 0 {
		t.Fatalf("read-only commits were failed")
	}
}

func TestChaosForwardsEngineSurface(t *testing.T) {
	inner := engines.MustNew("twm")
	tm := chaos.New(inner, chaos.Options{Seed: 1})
	if tm.Name() != inner.Name()+"+chaos" {
		t.Fatalf("Name()=%q", tm.Name())
	}
	if tm.Stats() != inner.Stats() {
		t.Fatalf("Stats() must forward to the inner engine")
	}
	if _, ok := stm.TM(tm).(stm.HistoryRecording); !ok {
		t.Fatalf("chaos wrapper must forward history recording")
	}
}

func TestChaosAllocsReadOnly(t *testing.T) {
	// The wrapper must preserve the inner engine's pooled, allocation-free
	// read path: chaosTx wrappers are pooled and Recycle forwards, so a
	// quiescent chaos wrapper adds zero allocations per transaction.
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	tm := chaos.New(engines.MustNew("twm"), chaos.Options{Seed: 1})
	vars := make([]stm.Var, 8)
	for i := range vars {
		vars[i] = tm.NewVar(i)
	}
	roTx := func() {
		_ = stm.Atomically(tm, true, func(tx stm.Tx) error {
			for _, v := range vars {
				_ = tx.Read(v)
			}
			return nil
		})
	}
	roTx() // warm the wrapper and descriptor pools
	if got := testing.AllocsPerRun(200, roTx); got > 0 {
		t.Errorf("chaos-wrapped read-only tx: %.1f allocs/op, budget 0", got)
	}
}
