package chaos_test

import (
	"os"
	"strconv"
	"testing"

	"repro/internal/chaos"
	"repro/internal/dsg"
	"repro/internal/engines"
)

// chaosSeed returns the seed a soak runs under: def normally, or the value of
// TWM_CHAOS_SEED when set (for replaying a failure). The seed is always
// logged — t.Logf output surfaces on failure, so a failing soak names the
// exact seed that reproduces it.
func chaosSeed(t *testing.T, def uint64) uint64 {
	t.Helper()
	seed := def
	if env := os.Getenv("TWM_CHAOS_SEED"); env != "" {
		v, err := strconv.ParseUint(env, 0, 64)
		if err != nil {
			t.Fatalf("bad TWM_CHAOS_SEED %q: %v", env, err)
		}
		seed = v
	}
	t.Logf("chaos seed %#x (replay with TWM_CHAOS_SEED=%#x)", seed, seed)
	return seed
}

// TestChaosSoakSerializable drives every registered engine through the
// randomized dsg serializability oracle with fault injection layered on top:
// spurious mid-transaction aborts, barrier delays (widening overlap), forced
// commit failures and commit stalls. The inner engine remains fully
// responsible for isolation, so any cycle the oracle finds under chaos is a
// real engine bug reachable under a pathological-but-legal schedule.
func TestChaosSoakSerializable(t *testing.T) {
	opts := dsg.RunOptions{Goroutines: 6, TxPerG: 120}
	if testing.Short() {
		opts = dsg.RunOptions{Goroutines: 4, TxPerG: 40}
	}
	for _, name := range engines.Names() {
		t.Run(name, func(t *testing.T) {
			tm := chaos.New(engines.MustNew(name), chaos.Options{
				Seed:           chaosSeed(t, 0xC0FFEE),
				AbortProb:      0.05,
				DelayProb:      0.15, // Delay 0: Gosched, forcing overlap on any core count
				CommitFailProb: 0.05,
				StallProb:      0.05,
			})
			dsg.CheckRandom(t, tm, opts)
			inj := tm.Injected()
			t.Logf("injected: %d aborts, %d commit fails, %d delays, %d stalls",
				inj.Aborts.Load(), inj.CommitFails.Load(), inj.Delays.Load(), inj.Stalls.Load())
			if inj.Aborts.Load() == 0 && inj.CommitFails.Load() == 0 {
				t.Errorf("soak injected no faults; the schedule was not adversarial")
			}
		})
	}
}
