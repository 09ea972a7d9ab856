package engines_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/engines"
	"repro/internal/stm"
	"repro/internal/stm/stmtest"
)

// TestDurableLatchedLogFailsFast: on an engine whose commit logger has
// latched a failure, an update is refused at the door (ReasonDurability) and
// the retry loop does not retry it — the latch is permanent — but returns a
// *stm.LogFailedError wrapping the logger's error after exactly one attempt,
// with the admission-gate slot back, nothing written and no goroutine left
// behind.
func TestDurableLatchedLogFailsFast(t *testing.T) {
	for _, name := range engines.DurableSet() {
		t.Run(name, func(t *testing.T) {
			stmtest.CheckGoroutines(t)
			tm, err := engines.New(name, engines.WithLogger(latchedLogger{}))
			if err != nil {
				t.Fatal(err)
			}
			x := stm.NewTVar(tm, 0)
			gate := stm.NewAdmissionGate(1, 0)
			attempts := 0
			err = stm.AtomicallyGated(context.Background(), tm, false, gate, func(tx stm.Tx) error {
				attempts++
				x.Set(tx, x.Get(tx)+1)
				return nil
			})
			var lf *stm.LogFailedError
			if !errors.As(err, &lf) || !errors.Is(err, errLatched) {
				t.Fatalf("err = %v, want *stm.LogFailedError wrapping the logger's error", err)
			}
			if attempts != 1 {
				t.Fatalf("the body ran %d times, want exactly one attempt", attempts)
			}
			if n := tm.Stats().Snapshot().ByReason[stm.ReasonDurability.String()]; n != 1 {
				t.Fatalf("%d durability refusals recorded, want 1", n)
			}
			if gate.InFlight() != 0 {
				t.Fatalf("gate slot leaked: in-flight = %d", gate.InFlight())
			}
			var got int
			if err := stm.Atomically(tm, true, func(tx stm.Tx) error {
				got = x.Get(tx)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if got != 0 {
				t.Fatalf("x = %d after the refusal, want 0", got)
			}
		})
	}
}

// latchedLogger is a commit logger that has latched a failure: the admit
// step refuses every commit before anything is appended.
type latchedLogger struct{}

func (latchedLogger) Append([]stm.CommitRecord) (stm.LSN, error) {
	return 0, errLatched
}
func (latchedLogger) Durable(stm.LSN) error { return errLatched }
func (latchedLogger) Err() error            { return errLatched }

var errLatched = errors.New("log latched")
