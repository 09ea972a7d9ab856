package chaos_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/chaos"
	"repro/internal/dsg"
	"repro/internal/engines"
	"repro/internal/stm"
)

// TestCrossShardChaosSoak drives the sharded engines through the dsg
// serializability oracle under fault injection, at skewed shard mixes: a few
// variables over several clock domains means nearly every update transaction
// has a cross-shard footprint (fence draws + per-shard validation), while the
// wider spread leaves plenty of single-shard fast-path commits. Any cycle the
// oracle finds is a real sharded-commit bug reachable under a legal schedule.
// Replayable via TWM_CHAOS_SEED.
func TestCrossShardChaosSoak(t *testing.T) {
	opts := dsg.RunOptions{Goroutines: 6, TxPerG: 120}
	if testing.Short() {
		opts = dsg.RunOptions{Goroutines: 4, TxPerG: 40}
	}
	mixes := []struct {
		label string
		vars  int
		k     int
	}{
		{"cross-heavy", 3, 4},  // ~every update spans shards
		{"balanced", 8, 4},     // mixed single/cross footprints
		{"single-heavy", 8, 2}, // most footprints fit one shard
	}
	for _, name := range engines.ShardedSet() {
		for _, mix := range mixes {
			t.Run(fmt.Sprintf("%s/%s", name, mix.label), func(t *testing.T) {
				inner := engines.MustNew(name, engines.WithClockShards(mix.k, nil))
				tm := chaos.New(inner, chaos.Options{
					Seed:           chaosSeed(t, 0x5AA3D),
					AbortProb:      0.05,
					DelayProb:      0.15,
					CommitFailProb: 0.05,
					StallProb:      0.05,
				})
				o := opts
				o.Vars = mix.vars
				dsg.CheckRandom(t, tm, o)
				inj := tm.Injected()
				t.Logf("injected: %d aborts, %d commit fails, %d delays, %d stalls",
					inj.Aborts.Load(), inj.CommitFails.Load(), inj.Delays.Load(), inj.Stalls.Load())
				if inj.Aborts.Load() == 0 && inj.CommitFails.Load() == 0 {
					t.Errorf("soak injected no faults; the schedule was not adversarial")
				}
			})
		}
	}
}

// TestCrossShardConservationSoak hammers a sharded TWM engine with transfers
// between per-shard account pairs — a deliberately skewed mix of single- and
// cross-shard footprints under chaos — and checks the conservation invariant
// plus the commit-class accounting at the end.
func TestCrossShardConservationSoak(t *testing.T) {
	const (
		k       = 4
		nVars   = 16
		workers = 6
		perW    = 150
		initial = 1000
	)
	inner := engines.MustNew("twm", engines.WithClockShards(k, nil))
	tm := chaos.New(inner, chaos.Options{
		Seed:           chaosSeed(t, 0xFACADE),
		AbortProb:      0.03,
		DelayProb:      0.2,
		CommitFailProb: 0.03,
	})
	vars := make([]stm.Var, nVars)
	for i := range vars {
		vars[i] = tm.NewVar(initial)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				// Workers 0..2 transfer within a shard (round-robin layout:
				// indices i and i+k share shard (i+1) mod k... same residue);
				// workers 3..5 transfer across shards.
				var from, to int
				if w < 3 {
					from = (w + i) % k
					to = from + k // same residue class mod k: same shard
				} else {
					from = (w + i) % nVars
					to = (from + 1) % nVars // neighboring id: different shard
				}
				err := stm.Atomically(tm, false, func(tx stm.Tx) error {
					a := tx.Read(vars[from]).(int)
					b := tx.Read(vars[to]).(int)
					tx.Write(vars[from], a-1) //twm:allow abortshape deliberate read-then-write transfer probe
					tx.Write(vars[to], b+1)   //twm:allow abortshape deliberate read-then-write transfer probe
					return nil
				})
				if err != nil {
					t.Errorf("transfer: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	total := 0
	_ = stm.Atomically(tm, true, func(tx stm.Tx) error {
		total = 0
		for _, v := range vars {
			total += tx.Read(v).(int)
		}
		return nil
	})
	if want := nVars * initial; total != want {
		t.Fatalf("conservation violated across shard mixes: total %d, want %d", total, want)
	}
	snap := tm.Stats().Snapshot()
	if snap.SingleShardCommits == 0 || snap.CrossShardCommits == 0 {
		t.Fatalf("soak exercised only one commit class: single=%d cross=%d",
			snap.SingleShardCommits, snap.CrossShardCommits)
	}
	t.Logf("commits: %d single-shard, %d cross-shard, %d CAS retries",
		snap.SingleShardCommits, snap.CrossShardCommits, snap.ShardClockCASRetries)
}
