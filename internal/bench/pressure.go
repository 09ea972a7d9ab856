package bench

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engines"
	"repro/internal/health"
	"repro/internal/mvutil"
	"repro/internal/stm"
)

// PressureConfig sizes the resource-exhaustion experiment: a version budget
// deliberately small relative to the working set, a trim depth whose
// per-variable floor (Vars x MaxVersionDepth) exceeds the hard limit (so
// trimming alone cannot relieve a blocked-GC regime), and an admission gate
// undersized for the worker count (so saturation surfaces as overload
// refusals rather than an abort storm).
type PressureConfig struct {
	// Vars is the shared working-set size.
	Vars int
	// SoftVersions / HardVersions are the budget limits (versions).
	SoftVersions int64
	HardVersions int64
	// MaxVersionDepth is the per-variable chain depth hard-pressure trims to.
	MaxVersionDepth int
	// GateLimit caps concurrently admitted update transactions; 0 derives
	// max(1, threads/2) per cell.
	GateLimit int
	// GateWait bounds how long a call queues at the gate before it is shed
	// with *stm.OverloadError.
	GateWait time.Duration
}

// DefaultPressure is the container-sized configuration: the same shape the
// chaos pressure soak validates (64 vars, depth 4 => trim floor 256 > hard
// 160, so a pinned snapshot forces commit refusal).
func DefaultPressure() PressureConfig {
	return PressureConfig{
		Vars:            64,
		SoftVersions:    96,
		HardVersions:    160,
		MaxVersionDepth: 4,
		GateWait:        100 * time.Microsecond,
	}
}

// pressureDetail is the per-cell observability the table prints beyond the
// generic Result.
type pressureDetail struct {
	budget    mvutil.BudgetSnapshot
	raised    int
	cleared   int
	recovered bool
}

// PressureFigure drives every multi-versioned engine in cfg.Engines through
// the three degradation regimes of the resource-exhaustion layer (DESIGN.md
// §11) and prints what each regime cost:
//
//  1. Stabilize: sustained gated update load under a small version budget —
//     soft pressure triggers eager GC and memory stays bounded.
//  2. Degrade: a pinned old snapshot blocks GC while the load continues —
//     hard pressure escalates through trim to commit refusal
//     (ReasonMemoryPressure) and the health watchdog raises alerts.
//  3. Recover: the pin is released — GC drains the backlog, commits resume,
//     and the watchdog clears.
//
// Engines without version chains (tl2, norec, avstm) have no version memory
// to exhaust and are skipped with a note. Each phase runs for cfg.Duration;
// the cell uses the largest configured thread count (the experiment probes
// degradation regimes, not scaling).
func PressureFigure(w io.Writer, cfg FigureConfig, pc PressureConfig) ([]Result, error) {
	mv := map[string]bool{}
	for _, name := range engines.MultiVersionSet() {
		mv[name] = true
	}
	threads := 1
	for _, t := range cfg.Threads {
		if t > threads {
			threads = t
		}
	}
	var all []Result
	tbl := NewTable(fmt.Sprintf("Pressure: stabilize/degrade/recover under a %d/%d-version budget (t=%d)",
		pc.SoftVersions, pc.HardVersions, threads),
		"engine", "commit/s", "mem-press", "overload", "softGCs", "trims", "rejects", "live-vers", "alerts", "recovered")
	for _, engine := range cfg.Engines {
		if !mv[engine] {
			fmt.Fprintf(w, "pressure: skipping %s (no version chains to exhaust)\n", engine)
			continue
		}
		res, det, err := runPressureCell(engine, threads, cfg.Duration, pc)
		if err != nil {
			return nil, err
		}
		all = append(all, res)
		tbl.AddRow(engine,
			FormatCount(res.Throughput()),
			fmt.Sprintf("%d", res.Stats.ByReason[stm.ReasonMemoryPressure.String()]),
			fmt.Sprintf("%d", res.Stats.ByReason[stm.ReasonOverload.String()]),
			fmt.Sprintf("%d", det.budget.SoftGCs),
			fmt.Sprintf("%d", det.budget.Trims),
			fmt.Sprintf("%d", det.budget.Rejects),
			fmt.Sprintf("%d", det.budget.Versions),
			fmt.Sprintf("%d up / %d down", det.raised, det.cleared),
			fmt.Sprintf("%v", det.recovered))
	}
	tbl.Fprint(w)
	return all, nil
}

// runPressureCell runs the three phases for one engine and returns the cell
// plus its budget/gate/watchdog detail. Result.Ops counts commits across all
// phases; Result.Elapsed covers the whole cell, so Throughput is the average
// commit rate including the degraded window.
func runPressureCell(engine string, threads int, d time.Duration, pc PressureConfig) (Result, pressureDetail, error) {
	b := mvutil.NewVersionBudget(mvutil.BudgetConfig{
		SoftVersions: pc.SoftVersions,
		HardVersions: pc.HardVersions,
	})
	tm, err := engines.New(engine, engines.WithBudget(b, pc.MaxVersionDepth))
	if err != nil {
		return Result{}, pressureDetail{}, err
	}
	gateLimit := pc.GateLimit
	if gateLimit <= 0 {
		gateLimit = threads / 2
		if gateLimit < 1 {
			gateLimit = 1
		}
	}
	gate := stm.NewAdmissionGate(gateLimit, pc.GateWait)
	vars := make([]stm.Var, pc.Vars)
	for i := range vars {
		vars[i] = tm.NewVar(0)
	}
	det := pressureDetail{}
	wd := health.New(health.Config{RaiseAfter: 2, ClearAfter: 2, MinAborts: 8,
		OnAlert: []health.AlertFunc{func(a health.Alert) {
			if a.Raised {
				det.raised++
			} else {
				det.cleared++
			}
		}}}, health.TargetOf(tm))

	var (
		ops      atomic.Uint64
		shed     atomic.Uint64
		errMu    sync.Mutex
		firstErr error
	)
	// runPhase hammers gated updates from `threads` workers for the phase
	// duration while the cell goroutine samples the watchdog. Overload
	// refusals are shed (counted) rather than retried: the gate's contract is
	// that the caller decides, and this caller models a server dropping
	// requests at the door.
	runPhase := func(phase time.Duration) {
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		for g := 0; g < threads; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; ctx.Err() == nil; i++ {
					idx := (g*31 + i) % pc.Vars
					err := stm.AtomicallyGated(ctx, tm, false, gate, func(tx stm.Tx) error {
						tx.Write(vars[idx], tx.Read(vars[idx]).(int)+1)
						return nil
					})
					var oe *stm.OverloadError
					var ce *stm.CancelledError
					switch {
					case err == nil:
						ops.Add(1)
					case errors.As(err, &oe):
						shed.Add(1)
					case errors.As(err, &ce):
						// phase over
					default:
						errMu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						errMu.Unlock()
						return
					}
				}
			}(g)
		}
		end := time.Now().Add(phase)
		for time.Now().Before(end) {
			wd.Step()
			time.Sleep(10 * time.Millisecond)
		}
		cancel()
		wg.Wait()
	}

	start := time.Now()
	// Phase 1 — stabilize under the budget.
	runPhase(d)
	// Phase 2 — degrade: a pinned snapshot blocks GC for the whole phase.
	pin := tm.Begin(true)
	runPhase(d)
	// Phase 3 — recover: release the pin, drain, and let the watchdog clear.
	tm.Abort(pin)
	end := time.Now().Add(d)
	for time.Now().Before(end) {
		if err := stm.Atomically(tm, false, func(tx stm.Tx) error {
			tx.Write(vars[0], tx.Read(vars[0]).(int)+1)
			return nil
		}); err != nil {
			errMu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			errMu.Unlock()
			break
		}
		ops.Add(1)
		wd.Step()
		if b.Level() != mvutil.PressureHard && det.cleared >= det.raised && det.raised > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	elapsed := time.Since(start)

	errMu.Lock()
	err = firstErr
	errMu.Unlock()
	if err != nil {
		return Result{}, pressureDetail{}, fmt.Errorf("bench: pressure %s: %w", engine, err)
	}
	det.budget = b.Snapshot()
	det.recovered = b.Level() != mvutil.PressureHard
	return Result{
		Engine:  engine,
		Threads: threads,
		Ops:     ops.Load(),
		Elapsed: elapsed,
		Stats:   tm.Stats().Snapshot(),
	}, det, nil
}
