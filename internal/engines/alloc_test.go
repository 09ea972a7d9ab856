package engines_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/engines"
	"repro/internal/health"
	"repro/internal/mvutil"
	"repro/internal/stm"
)

// Steady-state allocation budgets per engine, measured after transaction
// descriptors became pooled and write sets moved off Go maps. The read-only
// path allocates nothing on every engine. The update path keeps only the
// irreducible per-written-variable cost: the multi-versioned engines (twm*,
// jvstm) allocate one version node per written variable, and the single-
// version engines (tl2, norec) box each published value into an escaping
// interface cell; avstm publishes in place under the variable mutex and
// allocates nothing at all. A regression here means a hot-path allocation
// crept back in — tighten the code, not the budget.
var allocBudgets = map[string]struct{ readOnly, update float64 }{
	"twm":      {0, 8},
	"twm-notw": {0, 8},
	"jvstm":    {0, 8},
	"tl2":      {0, 8},
	"norec":    {0, 8},
	"avstm":    {0, 0},
}

// TestAllocsReadOnly verifies the read path allocates nothing once the
// per-engine transaction pool is warm: Begin reuses a pooled descriptor,
// reads append into retained backing arrays, and commit touches no heap.
func TestAllocsReadOnly(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	for _, name := range engines.Names() {
		t.Run(name, func(t *testing.T) {
			budget, ok := allocBudgets[name]
			if !ok {
				t.Fatalf("engine %q has no allocation budget; add one", name)
			}
			tm := engines.MustNew(name)
			vars := make([]stm.Var, 8)
			for i := range vars {
				vars[i] = tm.NewVar(i)
			}
			roTx := func() {
				_ = stm.Atomically(tm, true, func(tx stm.Tx) error {
					for _, v := range vars {
						_ = tx.Read(v)
					}
					return nil
				})
			}
			roTx() // warm the descriptor pool and slice capacities
			if got := testing.AllocsPerRun(200, roTx); got > budget.readOnly {
				t.Errorf("read-only tx: %.1f allocs/op, budget %.0f", got, budget.readOnly)
			}
		})
	}
}

// TestAllocsSmallUpdate verifies an uncontended 8-write update transaction
// stays within the engine's irreducible per-write allocation cost (version
// nodes or boxed published values) — the map-based write set and fresh
// descriptor that used to dominate are gone. Values stay below 256 so
// interface boxing of the ints themselves is allocation-free.
func TestAllocsSmallUpdate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	for _, name := range engines.Names() {
		t.Run(name, func(t *testing.T) {
			budget, ok := allocBudgets[name]
			if !ok {
				t.Fatalf("engine %q has no allocation budget; add one", name)
			}
			tm := engines.MustNew(name)
			vars := make([]stm.Var, 8)
			for i := range vars {
				vars[i] = tm.NewVar(i)
			}
			n := 0
			upTx := func() {
				n++
				_ = stm.Atomically(tm, false, func(tx stm.Tx) error {
					for _, v := range vars {
						tx.Write(v, (tx.Read(v).(int)+n)%251)
					}
					return nil
				})
			}
			upTx() // warm the descriptor pool and slice capacities
			if got := testing.AllocsPerRun(200, upTx); got > budget.update {
				t.Errorf("8-write tx: %.1f allocs/op, budget %.0f", got, budget.update)
			}
		})
	}
}

// TestAllocsWrappedReadOnly verifies the yield wrapper every paper figure and
// TestSerializabilityTrueParallelism run through preserves the allocation-free
// read path of every engine: the yieldTx wrappers are pooled and the wrapper
// forwards Recycle to the inner engine. A wrapper that stops forwarding makes
// every wrapped attempt allocate a fresh descriptor, and this test fails.
func TestAllocsWrappedReadOnly(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	for _, name := range engines.Names() {
		t.Run(name, func(t *testing.T) {
			for _, every := range []int{1, 1 << 30} {
				t.Run(fmt.Sprintf("yield=%d", every), func(t *testing.T) {
					tm := bench.WithYield(engines.MustNew(name), every)
					vars := make([]stm.Var, 8)
					for i := range vars {
						vars[i] = tm.NewVar(i)
					}
					roTx := func() {
						_ = stm.Atomically(tm, true, func(tx stm.Tx) error {
							for _, v := range vars {
								_ = tx.Read(v)
							}
							return nil
						})
					}
					roTx() // warm the wrapper and descriptor pools
					if got := testing.AllocsPerRun(200, roTx); got > 0 {
						t.Errorf("wrapped read-only tx: %.1f allocs/op, budget 0", got)
					}
				})
			}
		})
	}
}

// TestAllocsWatchdogSample verifies the health watchdog's steady-state
// sampling path allocates nothing while watching every multi-version engine
// at full fidelity (stats deltas, clock, active set). The watchdog exists to
// observe a system in distress; a sampler that allocates adds GC load exactly
// when the process is dying of memory pressure.
func TestAllocsWatchdogSample(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	var targets []health.Target
	for _, name := range engines.Names() {
		tm := engines.MustNew(name)
		if mvutil.Of(tm) == nil {
			continue
		}
		v := tm.NewVar(0)
		_ = stm.Atomically(tm, false, func(tx stm.Tx) error {
			tx.Write(v, 1)
			return nil
		})
		targets = append(targets, health.TargetOf(tm))
	}
	w := health.New(health.Config{}, targets...)
	w.Step() // settle the baselines
	if got := testing.AllocsPerRun(200, w.Step); got > 0 {
		t.Errorf("watchdog Step: %.1f allocs/op, budget 0", got)
	}
}

// TestAllocsAVSTMRegistry pins the visible-reader list's allocation profile:
// creating a variable allocates exactly the variable itself (the list head is
// a field of it), and the visible-read path — node registration,
// duplicate-read dedup, commit-side unlink — recycles pooled nodes instead of
// churning registry storage.
func TestAllocsAVSTMRegistry(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	tm := engines.MustNew("avstm")
	if got := testing.AllocsPerRun(100, func() { _ = tm.NewVar(0) }); got > 1 {
		t.Errorf("NewVar: %.1f allocs/op, budget 1 (the avar itself)", got)
	}

	vars := make([]stm.Var, 4)
	for i := range vars {
		vars[i] = tm.NewVar(i)
	}
	hotReads := func() {
		// Measures the update path's visible-read accounting; readOnly=false is the point.
		_ = stm.Atomically(tm, false, func(tx stm.Tx) error {
			for range 3 { // re-reads exercise the dedup walk
				for _, v := range vars {
					_ = tx.Read(v)
				}
			}
			return nil
		})
	}
	hotReads() // warm the descriptor pool and its node freelist
	if got := testing.AllocsPerRun(200, hotReads); got > 0 {
		t.Errorf("visible-read tx: %.1f allocs/op, budget 0", got)
	}
}

// TestAllocsTWMNewVar pins variable creation at one allocation, amortised:
// the twvar itself. The initial version is embedded in it and the read stamp,
// id, history and queue mark are a slot of a shared 127-slot meta chunk
// (DESIGN.md §12.4), so the former second allocation (the root version node)
// is gone and the chunk vanishes in the average.
func TestAllocsTWMNewVar(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	tm := engines.MustNew("twm")
	if got := testing.AllocsPerRun(2000, func() { _ = tm.NewVar(0) }); got > 1 {
		t.Errorf("NewVar: %.1f allocs/op, budget 1 (the variable itself)", got)
	}
}

// TestAllocsEmptyUpdate verifies an update transaction that writes nothing
// commits without touching the heap — the write buffer is lazily grown, so
// a read-mostly workload declared as updates pays nothing for the privilege.
func TestAllocsEmptyUpdate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	for _, name := range engines.Names() {
		t.Run(name, func(t *testing.T) {
			tm := engines.MustNew(name)
			v := tm.NewVar(7)
			emptyTx := func() {
				// Exercises the empty-write-set commit of an update transaction by design.
				_ = stm.Atomically(tm, false, func(tx stm.Tx) error {
					_ = tx.Read(v)
					return nil
				})
			}
			emptyTx()
			if got := testing.AllocsPerRun(200, emptyTx); got > 0 {
				t.Errorf("empty-write-set update tx: %.1f allocs/op, budget 0", got)
			}
		})
	}
}

// TestAllocsPanicPath verifies the panic exit of the retry loop recycles the
// pooled descriptor: a body panic (recovered by the caller) must leave the
// engine's pool balanced, so repeated panicking calls reuse one descriptor
// instead of allocating a fresh one per call. This is the regression test for
// the lifecycle bug where stm.run only recycled on normal return from
// runOnce, so every non-retry panic permanently drained one descriptor from
// the pool — invisible in benchmarks (bodies there never panic), a steady
// leak in a server whose request handlers can.
func TestAllocsPanicPath(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	boom := errors.New("boom")
	for _, name := range engines.Names() {
		t.Run(name, func(t *testing.T) {
			tm := engines.MustNew(name)
			v := tm.NewVar(0)
			panicTx := func() {
				defer func() {
					if r := recover(); r != boom {
						t.Fatalf("recovered %v, want the body's panic value", r)
					}
				}()
				// The leak being regression-tested lives in the update-descriptor pool; readOnly=true would test the wrong pool.
				_ = stm.Atomically(tm, false, func(tx stm.Tx) error {
					_ = tx.Read(v)
					panic(boom)
				})
			}
			panicTx() // warm the descriptor pool
			// Budget 0: the panic value pre-exists, the descriptor and its
			// read/write sets come from the pool, and the unwind machinery
			// itself is allocation-free.
			if got := testing.AllocsPerRun(200, panicTx); got > 0 {
				t.Errorf("panicking tx: %.1f allocs/op, budget 0 (descriptor not recycled?)", got)
			}
		})
	}
}
