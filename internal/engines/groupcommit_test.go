package engines_test

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engines"
	"repro/internal/stm"
	"repro/internal/stm/stmtest"
	"repro/internal/wal"
)

// These tests keep the names of the deleted flat-combining commit stage's
// tests and hold the group commit that remains, the write-ahead log's shared
// fsync, to the same promises: every concurrent call resolves exactly once,
// and cancelling a call never abandons a commit it already drew.

// TestGroupCommitConcurrentSubmitters: concurrent durable increments through
// a per-commit log on every WAL-capable engine. Every call returns once, the
// increments sum to the total, and the log recovers one record per commit.
func TestGroupCommitConcurrentSubmitters(t *testing.T) {
	for _, name := range engines.DurableSet() {
		t.Run(name, func(t *testing.T) {
			stmtest.CheckGoroutines(t)
			dir := t.TempDir()
			w, err := wal.Open(wal.Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			tm := engines.MustNew(name, engines.WithLogger(w))
			x := stm.NewTVar(tm, int64(0))
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
			var got int64
			if err := stm.Atomically(tm, true, func(tx stm.Tx) error {
				got = x.Get(tx)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if got != producers*perProducer {
				t.Fatalf("x = %d, want %d", got, producers*perProducer)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			rec, err := wal.Recover(dir)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Records != producers*perProducer {
				t.Fatalf("recovered %d records, want %d", rec.Records, producers*perProducer)
			}
			id := x.Raw().(interface{ VarID() uint64 }).VarID()
			if v := rec.Value(id, int64(0)); v != got {
				t.Fatalf("x recovered as %v, live %d", v, got)
			}
		})
	}
}

// TestGroupCommitCancelWhileCommitting: a call whose commit has drawn its
// tick and waits for its fsync is cancelled. The call does not return while
// the fsync is held; once it completes, the call reports the commit (a
// cancelled context is checked only between attempts), the write stands, the
// admission-gate slot is back and no goroutine outlives the test.
func TestGroupCommitCancelWhileCommitting(t *testing.T) {
	for _, name := range engines.DurableSet() {
		t.Run(name, func(t *testing.T) {
			stmtest.CheckGoroutines(t)
			entered, release := make(chan struct{}), make(chan struct{})
			var syncs atomic.Int32
			w, err := wal.Open(wal.Options{Dir: t.TempDir(), Hooks: wal.Hooks{
				BeforeSync: func() error {
					if syncs.Add(1) == 1 {
						close(entered)
						<-release
					}
					return nil
				},
			}})
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			tm := engines.MustNew(name, engines.WithLogger(w))

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

			<-entered // the commit has appended and leads its fsync
			cancel()
			select {
			case err := <-done:
				t.Fatalf("call returned %v while its fsync was held", err)
			case <-time.After(20 * time.Millisecond):
			}
			close(release)

			if err := <-done; err != nil {
				t.Fatalf("err = %v, want the drawn commit acknowledged", err)
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
			if got != 1 {
				t.Fatalf("x = %d, want the acknowledged write (1)", got)
			}
		})
	}
}
