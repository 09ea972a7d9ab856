package chaos_test

import (
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/dsg"
	"repro/internal/jvstm"
	"repro/internal/mvutil"
	"repro/internal/stm"
)

// TestGroupCommitChaosSoak drives the group-commit engines through the dsg
// serializability oracle with faults injected at both layers: the stm.TM
// chaos wrapper above (spurious aborts, delays, forced commit failures) and
// the combiner hooks below (stalled leaders, split batches). A sleeping
// leader is also the most effective batch generator — followers pile up
// behind it — so the soak exercises genuinely multi-member batches even on a
// single core. Replayable via TWM_CHAOS_SEED.
func TestGroupCommitChaosSoak(t *testing.T) {
	opts := dsg.RunOptions{Goroutines: 6, TxPerG: 120}
	if testing.Short() {
		opts = dsg.RunOptions{Goroutines: 4, TxPerG: 40}
	}
	engines := map[string]func(hooks *chaos.GroupInjector) stm.TM{
		"twm-gc": func(g *chaos.GroupInjector) stm.TM {
			return core.New(core.Options{Options: mvutil.Options{GroupCommit: true, GroupHooks: g.Hooks()}})
		},
		"jvstm-gc": func(g *chaos.GroupInjector) stm.TM {
			return jvstm.New(jvstm.Options{GroupCommit: true, GroupHooks: g.Hooks()})
		},
	}
	for name, mk := range engines {
		t.Run(name, func(t *testing.T) {
			seed := chaosSeed(t, 0xBA7C4)
			ginj := chaos.NewGroupInjector(chaos.GroupOptions{
				Seed:            seed,
				LeaderStallProb: 0.3,
				LeaderStall:     200 * time.Microsecond,
				BatchSplitProb:  0.5,
			})
			inner := mk(ginj)
			tm := chaos.New(inner, chaos.Options{
				Seed:           seed,
				AbortProb:      0.05,
				DelayProb:      0.15,
				CommitFailProb: 0.05,
				StallProb:      0.05,
			})
			dsg.CheckRandom(t, tm, opts)

			snap := inner.Stats().Snapshot()
			gi := ginj.Injected()
			t.Logf("batches %d (mean size %.2f), spills %d, handoffs %d; injected %d leader stalls, %d batch splits",
				snap.GroupBatches, snap.MeanBatchSize(), snap.BatchSpills, snap.CombinerHandoffs,
				gi.Stalls.Load(), gi.Splits.Load())
			if gi.Stalls.Load() == 0 {
				t.Errorf("soak injected no leader stalls; the schedule was not adversarial")
			}
			// The one-tick-per-batch invariant must hold under fault injection
			// too — stalls and splits may reshape batches, never the advance.
			if snap.ClockAdvances != snap.GroupBatches {
				t.Errorf("clock advances = %d, batches = %d", snap.ClockAdvances, snap.GroupBatches)
			}
		})
	}
}
