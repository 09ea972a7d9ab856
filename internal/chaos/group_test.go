package chaos_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/dsg"
	"repro/internal/engines"
	"repro/internal/wal"
	"repro/internal/xrand"
)

// TestGroupCommitChaosSoak drives every WAL-capable engine through the dsg
// serializability oracle with a per-commit log attached and faults injected
// at both layers: the stm.TM chaos wrapper above (spurious aborts, delays,
// forced commit failures) and the log below, whose fsyncs stall at random. A
// stalled fsync is the most effective batch generator for the log's group
// commit — committers pile up behind it and the next fsync covers them all —
// so the soak exercises genuinely shared fsyncs even on a single core. The
// log must close cleanly and recover afterwards. Replayable via
// TWM_CHAOS_SEED.
func TestGroupCommitChaosSoak(t *testing.T) {
	opts := dsg.RunOptions{Goroutines: 6, TxPerG: 120}
	if testing.Short() {
		opts = dsg.RunOptions{Goroutines: 4, TxPerG: 40}
	}
	for _, name := range engines.DurableSet() {
		t.Run(name, func(t *testing.T) {
			seed := chaosSeed(t, 0xBA7C4)
			var (
				mu            sync.Mutex
				rng           = xrand.New(xrand.Mix(seed))
				syncs, stalls int
			)
			dir := t.TempDir()
			w, err := wal.Open(wal.Options{Dir: dir, Hooks: wal.Hooks{
				BeforeSync: func() error {
					mu.Lock()
					syncs++
					stall := rng.Bool(0.3)
					if stall {
						stalls++
					}
					mu.Unlock()
					if stall {
						time.Sleep(200 * time.Microsecond)
					}
					return nil
				},
			}})
			if err != nil {
				t.Fatal(err)
			}
			tm := chaos.New(engines.MustNew(name, engines.WithLogger(w)), chaos.Options{
				Seed:           seed,
				AbortProb:      0.05,
				DelayProb:      0.15,
				CommitFailProb: 0.05,
				StallProb:      0.05,
			})
			dsg.CheckRandom(t, tm, opts)

			appended, _, _, err := w.WALCounters()
			if err != nil {
				t.Fatalf("log latched during the soak: %v", err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			t.Logf("%d records, %d fsyncs, %d injected fsync stalls", appended, syncs, stalls)
			if stalls == 0 {
				t.Errorf("soak injected no fsync stalls; the schedule was not adversarial")
			}
			mu.Unlock()
			rec, err := wal.Recover(dir)
			if err != nil {
				t.Fatalf("Recover after the soak: %v", err)
			}
			if uint64(rec.Records) != appended {
				t.Fatalf("recovered %d records, the log appended %d", rec.Records, appended)
			}
		})
	}
}
