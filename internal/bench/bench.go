// Package bench is the measurement harness behind every table and figure of
// the paper's evaluation (§5): fixed-duration throughput runners for the
// microbenchmarks (Fig. 3 and 4), fixed-work runners for the STAMP
// applications (Fig. 5, Table 2), the per-phase overhead breakdown
// (Fig. 4(c)), and the aggregation used for the geometric-mean speedup
// summary (Fig. 5(i)).
//
// Absolute numbers depend on the host; what the harness preserves is the
// paper's comparative structure: the same engines, the same workload knobs,
// the same metrics (throughput, time-to-completion, abort rate as
// restarts/executions, per-phase microseconds).
package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engines"
	"repro/internal/stamp"
	"repro/internal/stm"
	"repro/internal/xrand"
)

// Result is one measurement cell: an engine at a thread count.
type Result struct {
	Engine  string
	Threads int
	// Ops counts completed operations (committed application-level ops) for
	// fixed-duration runs; 0 for fixed-work runs.
	Ops uint64
	// Elapsed is the wall time of the measured region.
	Elapsed time.Duration
	// Stats is the engine's counter snapshot over the measured region.
	Stats stm.Snapshot
	// Breakdown is the per-phase profile; only filled by overhead runs.
	Breakdown stm.Breakdown
}

// Throughput returns operations per second (fixed-duration runs).
func (r Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds()
}

// MicroOp executes one application-level operation (typically one
// transaction) for a worker; implementations receive the worker id and its
// private RNG stream.
type MicroOp func(threadID int, r *xrand.Rand)

// Micro is a fixed-duration microbenchmark: Prepare builds shared state and
// returns the per-operation closure.
type Micro struct {
	Name string
	// Prepare sets up state for a run with the given worker count and
	// returns the operation body.
	Prepare func(tm stm.TM, threads int) (MicroOp, error)
}

// RunMicro measures ops/second of m on the named engine over the duration.
// yieldEvery > 0 injects a scheduler yield after every yieldEvery-th barrier
// (see WithYield).
func RunMicro(engine string, m Micro, threads int, d time.Duration, seed uint64, yieldEvery int) (Result, error) {
	inner, err := engines.New(engine)
	if err != nil {
		return Result{}, err
	}
	return runMicroOn(WithYield(inner, yieldEvery), engine, m, threads, d, seed)
}

// runMicroOn is RunMicro over a pre-built engine instance; label names the
// engine in the Result.
func runMicroOn(tm stm.TM, label string, m Micro, threads int, d time.Duration, seed uint64) (Result, error) {
	op, err := m.Prepare(tm, threads)
	if err != nil {
		return Result{}, fmt.Errorf("bench: prepare %s: %w", m.Name, err)
	}
	tm.Stats().Reset()

	var stop atomic.Bool
	var ops atomic.Uint64
	var wg sync.WaitGroup
	base := xrand.New(seed)
	start := time.Now()
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(id int, r *xrand.Rand) {
			defer wg.Done()
			n := uint64(0)
			for !stop.Load() {
				op(id, r)
				n++
			}
			ops.Add(n)
		}(w, base.Split(w))
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)

	return Result{
		Engine:  label,
		Threads: threads,
		Ops:     ops.Load(),
		Elapsed: elapsed,
		Stats:   tm.Stats().Snapshot(),
	}, nil
}

// RunMicroProfiled is RunMicro with the Fig. 4(c) phase profiler attached.
func RunMicroProfiled(engine string, m Micro, threads int, d time.Duration, seed uint64, yieldEvery int) (Result, error) {
	inner, err := engines.New(engine)
	if err != nil {
		return Result{}, err
	}
	prof := &stm.Profiler{}
	inner.Stats().SetProfiler(prof)
	tm := WithYield(inner, yieldEvery)
	op, err := m.Prepare(tm, threads)
	if err != nil {
		return Result{}, err
	}
	tm.Stats().Reset()
	prof.Reset()

	var stop atomic.Bool
	var ops atomic.Uint64
	var wg sync.WaitGroup
	base := xrand.New(seed)
	start := time.Now()
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(id int, r *xrand.Rand) {
			defer wg.Done()
			n := uint64(0)
			for !stop.Load() {
				op(id, r)
				n++
			}
			ops.Add(n)
		}(w, base.Split(w))
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)

	return Result{
		Engine:    engine,
		Threads:   threads,
		Ops:       ops.Load(),
		Elapsed:   elapsed,
		Stats:     tm.Stats().Snapshot(),
		Breakdown: prof.Snapshot(),
	}, nil
}

// RunStamp measures the time to complete a fixed-work STAMP application on
// the named engine, validating the application output afterwards.
func RunStamp(engine string, mk func() stamp.Workload, threads int, yieldEvery int) (Result, error) {
	inner, err := engines.New(engine)
	if err != nil {
		return Result{}, err
	}
	tm := WithYield(inner, yieldEvery)
	w := mk()
	if err := w.Setup(tm); err != nil {
		return Result{}, fmt.Errorf("bench: %s setup: %w", w.Name(), err)
	}
	tm.Stats().Reset()
	start := time.Now()
	if err := w.Run(tm, threads); err != nil {
		return Result{}, fmt.Errorf("bench: %s run: %w", w.Name(), err)
	}
	elapsed := time.Since(start)
	if err := w.Validate(tm); err != nil {
		return Result{}, fmt.Errorf("bench: %s validate (engine %s): %w", w.Name(), engine, err)
	}
	return Result{
		Engine:  engine,
		Threads: threads,
		Elapsed: elapsed,
		Stats:   tm.Stats().Snapshot(),
	}, nil
}
