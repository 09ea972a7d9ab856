package stm

import (
	"sync/atomic"
	"time"
)

// Profiler accumulates per-phase wall time, reproducing the instrumentation
// behind Fig. 4(c) of the paper: time in read barriers, read-set validation,
// write-set validation, and the remainder of the commit procedure.
//
// Engines receive a Profiler via the Profilable interface; a nil profiler
// means the phase timers are skipped entirely, so regular benchmark runs pay
// no instrumentation cost.
type Profiler struct {
	readNS        atomic.Int64
	readSetValNS  atomic.Int64
	writeSetValNS atomic.Int64
	commitNS      atomic.Int64
	txs           atomic.Int64
}

// processStart anchors Profiler.Now. time.Since reads the monotonic clock,
// so phase deltas are immune to wall-clock steps (NTP slew or jump mid-run
// used to corrupt the Fig. 4(c) breakdown with negative or inflated phase
// times, because UnixNano strips Go's monotonic reading).
var processStart = time.Now()

// Now returns the current monotonic timestamp in nanoseconds since process
// start. Centralized so engines share one definition of "time" for the
// breakdown; only differences of Now values are meaningful.
func (p *Profiler) Now() int64 { return int64(time.Since(processStart)) }

// AddRead charges elapsed nanoseconds to the read-barrier phase.
func (p *Profiler) AddRead(ns int64) { p.readNS.Add(ns) }

// AddReadSetVal charges the read-set validation phase (commit-time read
// validation, plus NOrec-style in-flight revalidation).
func (p *Profiler) AddReadSetVal(ns int64) { p.readSetValNS.Add(ns) }

// AddWriteSetVal charges the write-set phase: AVSTM's write-set validation,
// and for the engines on the shared commit pipeline (TWM, JVSTM) everything up
// to and including write-lock acquisition (mvutil.Chassis, DESIGN.md §7).
func (p *Profiler) AddWriteSetVal(ns int64) { p.writeSetValNS.Add(ns) }

// AddCommit charges the remainder of the commit procedure (write-back, version
// installation, log append, lock handoff).
func (p *Profiler) AddCommit(ns int64) { p.commitNS.Add(ns) }

// AddTx notes one finished transaction (committed or aborted attempt), the
// denominator for per-transaction averages.
func (p *Profiler) AddTx() { p.txs.Add(1) }

// Breakdown is the per-transaction average time in each phase, in
// microseconds, matching the units of Fig. 4(c).
type Breakdown struct {
	ReadUS        float64
	ReadSetValUS  float64
	WriteSetValUS float64
	CommitUS      float64
	Txs           int64
}

// TotalUS returns the sum of all phases.
func (b Breakdown) TotalUS() float64 {
	return b.ReadUS + b.ReadSetValUS + b.WriteSetValUS + b.CommitUS
}

// Snapshot computes the current averages.
func (p *Profiler) Snapshot() Breakdown {
	n := p.txs.Load()
	if n == 0 {
		return Breakdown{}
	}
	div := float64(n) * 1e3 // ns -> us and per-tx
	return Breakdown{
		ReadUS:        float64(p.readNS.Load()) / div,
		ReadSetValUS:  float64(p.readSetValNS.Load()) / div,
		WriteSetValUS: float64(p.writeSetValNS.Load()) / div,
		CommitUS:      float64(p.commitNS.Load()) / div,
		Txs:           n,
	}
}

// Reset zeroes all accumulators.
func (p *Profiler) Reset() {
	p.readNS.Store(0)
	p.readSetValNS.Store(0)
	p.writeSetValNS.Store(0)
	p.commitNS.Store(0)
	p.txs.Store(0)
}
