package engines_test

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/chaos"
	"repro/internal/engines"
	"repro/internal/stm"
)

// TestStatsReconcileWithRetryLoop cross-checks, for every engine, the
// counters in Stats.Snapshot() against what the retry loop did, observed from
// the only seat the loop leaves: the body. Delay-only chaos (no injected
// aborts) interleaves attempts so real conflicts occur on any core count;
// then every body execution is a start, every call a commit, every extra
// execution an abort, and each abort is recorded under exactly one reason.
func TestStatsReconcileWithRetryLoop(t *testing.T) {
	goroutines, calls := 4, 120
	if testing.Short() {
		goroutines, calls = 4, 40
	}
	for _, name := range engines.Names() {
		t.Run(name, func(t *testing.T) {
			eng := engines.MustNew(name)
			// Delay-only injection: widens overlap without adding chaos
			// aborts, so engine stats and body executions describe the same
			// set of events.
			tm := chaos.New(eng, chaos.Options{Seed: 11, DelayProb: 0.5})
			vars := make([]stm.Var, 6)
			for i := range vars {
				vars[i] = tm.NewVar(0)
			}
			var executions atomic.Uint64
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < calls; i++ {
						j := (g + i) % len(vars)
						err := stm.Atomically(tm, false, func(tx stm.Tx) error {
							executions.Add(1) //twm:allow txpurity counting executions is the observation under test
							a := tx.Read(vars[j]).(int)
							b := tx.Read(vars[(j+1)%len(vars)]).(int)
							tx.Write(vars[j], a+1)
							tx.Write(vars[(j+1)%len(vars)], b+1)
							return nil
						})
						if err != nil {
							t.Errorf("tx failed: %v", err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			if t.Failed() {
				return
			}

			snap := eng.Stats().Snapshot()
			execs, total := executions.Load(), uint64(goroutines*calls)
			if snap.Starts != execs {
				t.Errorf("engine saw %d starts, the body ran %d times", snap.Starts, execs)
			}
			if snap.Commits != total {
				t.Errorf("engine recorded %d commits for %d calls", snap.Commits, total)
			}
			if snap.Aborts != execs-total {
				t.Errorf("engine recorded %d aborts, the loop retried %d times", snap.Aborts, execs-total)
			}
			var byReason uint64
			for _, n := range snap.ByReason {
				byReason += n
			}
			if byReason != snap.Aborts {
				t.Errorf("per-reason total %d != engine aborts %d (%v)", byReason, snap.Aborts, snap.ByReason)
			}
			// Exactly the group-commit engines batch their update commits.
			if grouped := slices.Contains(engines.GroupCommitSet(), name); grouped != (snap.GroupBatches > 0) {
				t.Errorf("group-commit engine %v, but %d batches recorded", grouped, snap.GroupBatches)
			}
			t.Logf("%s: %d executions, %d aborts, by reason %v", name, execs, snap.Aborts, snap.ByReason)
		})
	}
}
