package engines_test

import (
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/dsg"
	"repro/internal/engines"
	"repro/internal/stamp/vacation"
)

// TestSerializabilityTrueParallelism runs the DSG oracle with oversubscribed
// OS threads (GOMAXPROCS > cores) and per-barrier yields, the interleaving
// regime that exposed a commit-ordering race in the lock-based TWM commit
// (natural timestamps drawn after the read-set scan let two crossing
// committers miss each other's anti-dependencies). Regression for that fix,
// applied to every engine.
func TestSerializabilityTrueParallelism(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	for _, name := range engines.Names() {
		t.Run(name, func(t *testing.T) {
			for round := 0; round < 25 && !t.Failed(); round++ {
				tm := bench.WithYield(engines.MustNew(name), 1)
				dsg.CheckRandom(t, tm, dsg.RunOptions{
					Vars: 6, Goroutines: 8, TxPerG: 60, ReadOnlyP: 0.15,
					Seed: uint64(round*131 + 7),
				})
			}
		})
	}
}

// TestSerializabilityMostlyReadOnly runs the oracle where stamp elision
// decides the most: seven transactions in ten are read-only and, with a yield
// at every barrier, most of them begin while some update transaction is
// mid-flight — older (they stamp), younger or already past its stamp check
// (they do not) — and every reader's snapshot is checked against the order the
// writers ended up in; both read barriers must have run.
func TestSerializabilityMostlyReadOnly(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	rounds := 12
	if testing.Short() {
		rounds = 4
	}
	t.Run("twm", func(t *testing.T) {
		var ro, quiet uint64
		for round := 0; round < rounds && !t.Failed(); round++ {
			inner := engines.MustNew("twm")
			dsg.CheckRandom(t, bench.WithYield(inner, 1), dsg.RunOptions{
				Vars: 6, Goroutines: 8, TxPerG: 80, ReadOnlyP: 0.7,
				Seed: uint64(round*257 + 31),
			})
			sn := inner.Stats().Snapshot()
			ro, quiet = ro+sn.ROCommits, quiet+sn.QuietROCommits
		}
		if quiet == 0 || quiet == ro {
			t.Errorf("only one read barrier ran: %d of %d read-only commits quiet", quiet, ro)
		}
	})
}

// TestVacationTrueParallelism stresses the application-level invariant that
// first exposed the race (resource Used counts vs customer-held bookings).
func TestVacationTrueParallelism(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	for _, name := range engines.Names() {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 40; i++ {
				p := vacation.Small()
				p.Seed = uint64(i + 1)
				w := vacation.New("vacation-high", p)
				tm := bench.WithYield(engines.MustNew(name), 1)
				if err := w.Setup(tm); err != nil {
					t.Fatal(err)
				}
				if err := w.Run(tm, 8); err != nil {
					t.Fatalf("seed %d run: %v", i+1, err)
				}
				if err := w.Validate(tm); err != nil {
					t.Fatalf("seed %d validate: %v", i+1, err)
				}
			}
		})
	}
}
