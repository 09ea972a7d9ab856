package chaos_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/health"
	"repro/internal/jvstm"
	"repro/internal/mvutil"
	"repro/internal/stm"
	"repro/internal/stm/stmtest"
)

// alertLog collects watchdog transitions; Step is always driven from the
// test goroutine, so no locking is needed to append, but reads race with
// nothing either (append and read interleave on one goroutine).
type alertLog struct{ events []health.Alert }

func (l *alertLog) fn(a health.Alert) { l.events = append(l.events, a) }

func (l *alertLog) saw(c health.Condition, raised bool) bool {
	for _, a := range l.events {
		if a.Cond == c && a.Raised == raised {
			return true
		}
	}
	return false
}

// TestPressureSoakStabilizeDegradeRecover is the acceptance soak for the
// resource-exhaustion layer, run for both multi-version engines under fault
// injection (and under -race in CI):
//
//  1. Stabilize: sustained update load with automatic GC disabled stays
//     inside the version budget because soft pressure triggers eager GC.
//  2. Degrade: a pinned old snapshot blocks GC and the trim floor (vars ×
//     MaxVersionDepth) exceeds the hard limit, so commits are refused with
//     ReasonMemoryPressure; the watchdog raises budget-hard and livelock.
//  3. Recover: releasing the pin lets GC relieve the pressure; commits
//     succeed again and the watchdog clears both alerts.
func TestPressureSoakStabilizeDegradeRecover(t *testing.T) {
	const (
		nv       = 64
		depth    = 4   // trim floor nv*depth = 256 > hard: trimming cannot relieve
		softVers = 96  // 64 roots + 32 extra versions
		hardVers = 160 // far below the pinned-phase demand
		workers  = 4
	)
	type engineCase struct {
		name  string
		build func(b *mvutil.VersionBudget) stm.TM
	}
	cases := []engineCase{
		{"twm", func(b *mvutil.VersionBudget) stm.TM {
			return core.New(core.Options{Options: mvutil.Options{GCEveryNCommits: -1, Budget: b, MaxVersionDepth: depth}})
		}},
		{"jvstm", func(b *mvutil.VersionBudget) stm.TM {
			return jvstm.New(jvstm.Options{GCEveryNCommits: -1, Budget: b, MaxVersionDepth: depth})
		}},
	}
	for _, ec := range cases {
		t.Run(ec.name, func(t *testing.T) {
			stmtest.CheckGoroutines(t)
			b := mvutil.NewVersionBudget(mvutil.BudgetConfig{SoftVersions: softVers, HardVersions: hardVers})
			inner := ec.build(b)
			tm := chaos.New(inner, chaos.Options{
				Seed:      chaosSeed(t, 0xBAD_B1D6E7),
				AbortProb: 0.02,
				DelayProb: 0.10,
			})
			vars := make([]stm.Var, nv)
			for i := range vars {
				vars[i] = tm.NewVar(0)
			}
			log := &alertLog{}
			w := health.New(health.Config{RaiseAfter: 2, ClearAfter: 2, MinAborts: 8,
				OnAlert: []health.AlertFunc{log.fn}}, health.TargetOf(inner))

			// Phase 1 — stabilize: hammer updates; the only collector is the
			// budget's eager soft-pressure GC.
			var wg sync.WaitGroup
			for g := 0; g < workers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 300; i++ {
						idx := (g*300 + i) % nv
						if err := stm.Atomically(tm, false, func(tx stm.Tx) error {
							tx.Write(vars[idx], tx.Read(vars[idx]).(int)+1)
							return nil
						}); err != nil {
							t.Errorf("stabilize write: %v", err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			if b.SoftGCs() == 0 {
				t.Fatalf("no soft-limit GC observed: %+v", b.Snapshot())
			}
			if got := b.Versions(); got > hardVers+2*workers {
				t.Fatalf("version memory did not stabilize under the budget: %d live (hard %d)", got, hardVers)
			}
			t.Logf("phase 1 stabilized: %+v", b.Snapshot())

			// Phase 2 — degrade: pin an old snapshot on the inner engine so GC
			// cannot advance, then keep writing until installs are refused and
			// the watchdog raises budget-hard and livelock.
			pin := inner.Begin(true)
			ctx, cancel := context.WithCancel(context.Background())
			for g := 0; g < workers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; ctx.Err() == nil; i++ {
						idx := (g + i) % nv
						err := stm.AtomicallyCtx(ctx, tm, false, func(tx stm.Tx) error {
							tx.Write(vars[idx], tx.Read(vars[idx]).(int)+1)
							return nil
						})
						var ce *stm.CancelledError
						if err != nil && !errors.As(err, &ce) {
							t.Errorf("degrade write: %v", err)
							return
						}
					}
				}(g)
			}
			deadline := time.Now().Add(30 * time.Second)
			for time.Now().Before(deadline) {
				w.Step()
				if b.Rejects() > 0 &&
					log.saw(health.CondBudget, true) && log.saw(health.CondLivelock, true) {
					break
				}
				time.Sleep(20 * time.Millisecond)
			}
			cancel()
			wg.Wait()
			if t.Failed() {
				return
			}
			if b.Rejects() == 0 {
				t.Fatalf("hard pressure never refused an install: %+v", b.Snapshot())
			}
			if got := inner.Stats().Snapshot().ByReason[stm.ReasonMemoryPressure.String()]; got == 0 {
				t.Fatal("no ReasonMemoryPressure aborts recorded under forced hard pressure")
			}
			if !log.saw(health.CondBudget, true) {
				t.Fatalf("watchdog never raised budget-hard; alerts: %+v", log.events)
			}
			if !log.saw(health.CondLivelock, true) {
				t.Fatalf("watchdog never raised livelock; alerts: %+v", log.events)
			}
			t.Logf("phase 2 degraded: %+v", b.Snapshot())

			// Phase 3 — recover: release the pin; the next commits' GC passes
			// relieve the pressure and the watchdog clears both alerts.
			inner.Abort(pin)
			for i := 0; i < 50; i++ {
				idx := i % nv
				if err := stm.Atomically(tm, false, func(tx stm.Tx) error {
					tx.Write(vars[idx], tx.Read(vars[idx]).(int)+1)
					return nil
				}); err != nil {
					t.Fatalf("recovery write: %v", err)
				}
			}
			deadline = time.Now().Add(30 * time.Second)
			for time.Now().Before(deadline) {
				// Keep a trickle of commits flowing so livelock windows read
				// healthy while the hysteresis clears.
				if err := stm.Atomically(tm, false, func(tx stm.Tx) error {
					tx.Write(vars[0], tx.Read(vars[0]).(int)+1)
					return nil
				}); err != nil {
					t.Fatalf("recovery trickle: %v", err)
				}
				w.Step()
				if log.saw(health.CondBudget, false) && log.saw(health.CondLivelock, false) {
					break
				}
				time.Sleep(10 * time.Millisecond)
			}
			if !log.saw(health.CondBudget, false) || !log.saw(health.CondLivelock, false) {
				t.Fatalf("watchdog never cleared; alerts: %+v, budget: %+v", log.events, b.Snapshot())
			}
			if lvl := b.Level(); lvl == mvutil.PressureHard {
				t.Fatalf("still at hard pressure after recovery: %+v", b.Snapshot())
			}
			t.Logf("phase 3 recovered: %+v; %d alerts: %+v", b.Snapshot(), len(log.events), log.events)
		})
	}
}
