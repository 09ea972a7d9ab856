package wal_test

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

// TestEngineRecoveryMatchesLiveState is the end-to-end zero-loss check under
// every fsync policy: drive concurrent transfers over a logged engine, close
// the log cleanly, recover, and require the recovered value of every variable
// to equal the live in-memory state — byte for byte, not just conserved.
// Subtests are named engine-policy; per-commit keeps the bare engine name.
func TestEngineRecoveryMatchesLiveState(t *testing.T) {
	const (
		nVars    = 16
		initial  = int64(1000)
		workers  = 4
		transfer = 200
	)
	type recoveryCase struct {
		name   string
		engine string
		policy wal.Policy
	}
	var cases []recoveryCase
	for _, name := range engines.DurableSet() {
		cases = append(cases,
			recoveryCase{name, name, wal.SyncPerCommit},
			recoveryCase{name + "-" + wal.SyncInterval.String(), name, wal.SyncInterval})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			w, err := wal.Open(wal.Options{Dir: dir, Policy: c.policy})
			if err != nil {
				t.Fatal(err)
			}
			tm := engines.MustNew(c.engine, engines.WithLogger(w))

			vars := make([]*stm.TVar[int64], nVars)
			ids := make([]uint64, nVars)
			for i := range vars {
				vars[i] = stm.NewTVar(tm, initial)
				iv, ok := vars[i].Raw().(interface{ VarID() uint64 })
				if !ok {
					t.Fatalf("engine %s variables carry no id", c.engine)
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

// BenchmarkDurableWait measures the per-commit fsync wait on the disk under
// the test's TempDir: committers goroutines run b.N two-variable transfers in
// all over 1 024 variables of a twm engine with a wal logger attached. It
// reports the records one fsync covered on average (appended records over
// fsyncs, counted by an AfterSync hook) and the p99 transfer latency.
func BenchmarkDurableWait(b *testing.B) {
	const nVars = 1024
	for _, committers := range []int{1, 8, 16, 64} {
		b.Run(fmt.Sprintf("committers=%d", committers), func(b *testing.B) {
			after, fsyncs := countSyncs()
			w, err := wal.Open(wal.Options{Dir: b.TempDir(), Hooks: wal.Hooks{AfterSync: after}})
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			tm := engines.MustNew("twm", engines.WithLogger(w))
			vars := make([]*stm.TVar[int64], nVars)
			for i := range vars {
				vars[i] = stm.NewTVar(tm, int64(1000))
			}
			lat := make([][]time.Duration, committers)
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			for c := 0; c < committers; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					rng := xrand.New(xrand.Mix(uint64(c) + 1))
					for next.Add(1) <= int64(b.N) {
						from, to := rng.Intn(nVars), rng.Intn(nVars-1)
						if to >= from {
							to++
						}
						start := time.Now()
						err := stm.Atomically(tm, false, func(tx stm.Tx) error {
							vars[from].Set(tx, vars[from].Get(tx)-1)
							vars[to].Set(tx, vars[to].Get(tx)+1)
							return nil
						})
						lat[c] = append(lat[c], time.Since(start))
						if err != nil {
							b.Error(err)
							return
						}
					}
				}(c)
			}
			wg.Wait()
			b.StopTimer()
			appended, _, _, _ := w.WALCounters()
			var all []time.Duration
			for _, l := range lat {
				all = append(all, l...)
			}
			sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
			b.ReportMetric(float64(appended)/float64(fsyncs.Load()), "records/fsync")
			b.ReportMetric(float64(all[len(all)*99/100].Microseconds()), "p99-us")
		})
	}
}
