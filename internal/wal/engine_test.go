package wal_test

import (
	"sync"
	"testing"

	"repro/internal/dsg"
	"repro/internal/engines"
	"repro/internal/stm"
	"repro/internal/wal"
	"repro/internal/xrand"
)

// TestLoggedEngineDSG runs the serializability oracle over every WAL-capable
// engine with a live logger attached: the commit-path append must not perturb
// the ordering guarantees, and the log left behind must recover cleanly.
func TestLoggedEngineDSG(t *testing.T) {
	for _, name := range engines.DurableSet() {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			w, err := wal.Open(wal.Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			tm := engines.MustNew(name, engines.WithLogger(w))
			dsg.CheckRandom(t, tm, dsg.RunOptions{Goroutines: 4, TxPerG: 80})
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			rec, err := wal.Recover(dir)
			if err != nil {
				t.Fatalf("Recover after DSG run: %v", err)
			}
			if rec.Records == 0 {
				t.Fatal("no commit records logged during the DSG run")
			}
		})
	}
}

// TestEngineRecoveryMatchesLiveState is the end-to-end zero-loss check at
// fsync-per-commit: drive concurrent transfers over a logged engine, close the
// log cleanly, recover, and require the recovered value of every variable to
// equal the live in-memory state — byte for byte, not just conserved.
func TestEngineRecoveryMatchesLiveState(t *testing.T) {
	const (
		nVars    = 16
		initial  = int64(1000)
		workers  = 4
		transfer = 200
	)
	for _, name := range engines.DurableSet() {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			w, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncPerCommit})
			if err != nil {
				t.Fatal(err)
			}
			tm := engines.MustNew(name, engines.WithLogger(w))

			vars := make([]*stm.TVar[int64], nVars)
			ids := make([]uint64, nVars)
			for i := range vars {
				vars[i] = stm.NewTVar(tm, initial)
				iv, ok := vars[i].Raw().(interface{ VarID() uint64 })
				if !ok {
					t.Fatalf("engine %s variables carry no id", name)
				}
				ids[i] = iv.VarID()
			}

			var wg sync.WaitGroup
			for g := 0; g < workers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := xrand.New(xrand.Mix(uint64(g) + 42))
					for i := 0; i < transfer; i++ {
						from, to := rng.Intn(nVars), rng.Intn(nVars)
						if from == to {
							continue
						}
						amt := int64(1 + rng.Intn(10))
						err := stm.Atomically(tm, false, func(tx stm.Tx) error {
							b := vars[from].Get(tx)
							if b < amt {
								return nil
							}
							vars[from].Set(tx, b-amt)
							vars[to].Set(tx, vars[to].Get(tx)+amt)
							return nil
						})
						if err != nil {
							t.Errorf("transfer: %v", err)
							return
						}
					}
				}(g)
			}
			wg.Wait()

			live := make([]int64, nVars)
			if err := stm.Atomically(tm, true, func(tx stm.Tx) error {
				for i := range vars {
					live[i] = vars[i].Get(tx)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			rec, err := wal.Recover(dir)
			if err != nil {
				t.Fatal(err)
			}
			var total int64
			for i := range vars {
				got := rec.Value(ids[i], initial)
				n, ok := got.(int64)
				if !ok {
					t.Fatalf("var %d recovered as %T", ids[i], got)
				}
				if n != live[i] {
					t.Errorf("var %d: recovered %d, live %d", ids[i], n, live[i])
				}
				total += n
			}
			if total != nVars*initial {
				t.Errorf("money not conserved: %d, want %d", total, nVars*initial)
			}
		})
	}
}
