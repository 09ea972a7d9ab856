package chaos_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/engines"
	"repro/internal/stm"
	"repro/internal/wal"
	"repro/internal/xrand"
)

// TestCrashRecoverSoak is the durability soak: every WAL-capable engine runs
// concurrent transfers against a log armed with a seeded crash plan (one of
// the four WAL fault points plus an optional post-crash mutilation of the
// directory), and after the "crash" the test recovers the directory and
// audits money conservation. Because the engines append a commit's write set
// before its versions become visible, the surviving records always form a
// dependency-closed prefix of the commit order — so the recovered state must
// balance exactly, whatever the crash point. Replayable via TWM_CHAOS_SEED.
func TestCrashRecoverSoak(t *testing.T) {
	rounds := 3
	if testing.Short() {
		rounds = 1
	}
	base := chaosSeed(t, 0xD1E5D1E5)
	for round := 0; round < rounds; round++ {
		seed := base + uint64(round)*0x9E3779B97F4A7C15
		for _, name := range engines.DurableSet() {
			t.Run(fmt.Sprintf("%s/round%d", name, round), func(t *testing.T) {
				runCrashSoak(t, name, seed)
			})
		}
	}
}

func runCrashSoak(t *testing.T, engine string, seed uint64) {
	const (
		nVars   = 12
		initial = int64(1000)
		workers = 4
		opsPerW = 400
	)
	dir := t.TempDir()
	plan := chaos.NewCrashPlan(seed)
	t.Logf("engine %s, seed %#x: %s", engine, seed, plan)

	w, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncPerCommit, Hooks: plan.Hooks()})
	if err != nil {
		t.Fatal(err)
	}
	tm := engines.MustNew(engine, engines.WithLogger(w))

	vars := make([]*stm.TVar[int64], nVars)
	ids := make([]uint64, nVars)
	for i := range vars {
		vars[i] = stm.NewTVar(tm, initial)
		ids[i] = vars[i].Raw().(interface{ VarID() uint64 }).VarID()
	}

	// Once the crash fires, the latched log fails every commit forever; the
	// workers' retry loops must be cancelled, not waited out.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	watch := make(chan struct{})
	go func() {
		defer close(watch)
		for !plan.Fired() {
			select {
			case <-ctx.Done():
				return
			case <-time.After(time.Millisecond):
			}
		}
		cancel()
	}()

	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := xrand.New(xrand.Mix(seed ^ uint64(g+1)))
			for i := 0; i < opsPerW && ctx.Err() == nil; i++ {
				from, to := rng.Intn(nVars), rng.Intn(nVars)
				if from == to {
					continue
				}
				amt := int64(1 + rng.Intn(9))
				// Errors are expected here: cancellation once the crash
				// fires. The audit below is the actual assertion.
				_ = stm.AtomicallyCtx(ctx, tm, false, func(tx stm.Tx) error {
					b := vars[from].Get(tx)
					if b < amt {
						return nil
					}
					vars[from].Set(tx, b-amt)
					vars[to].Set(tx, vars[to].Get(tx)+amt)
					return nil
				})
			}
		}(g)
	}
	wg.Wait()
	cancel()
	<-watch
	w.Close() //nolint:errcheck // reports the latched crash; that is the point

	if err := plan.Mutilate(dir); err != nil {
		t.Fatalf("Mutilate: %v", err)
	}
	rec, err := wal.Recover(dir)
	if err != nil {
		t.Fatalf("Recover after %s: %v", plan, err)
	}
	var total int64
	for i := range ids {
		v := rec.Value(ids[i], initial)
		n, ok := v.(int64)
		if !ok {
			t.Fatalf("var %d recovered as %T after %s", ids[i], v, plan)
		}
		total += n
	}
	if total != nVars*initial {
		t.Fatalf("money not conserved after %s: recovered %d, want %d (%d records, torn=%v)",
			plan, total, nVars*initial, rec.Records, rec.Torn)
	}
	t.Logf("fired=%v records=%d torn=%v serial=%d", plan.Fired(), rec.Records, rec.Torn, rec.Serial)
}
