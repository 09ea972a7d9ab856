// Package chaos provides a fault-injection middleware for STM engines: a
// composable stm.TM wrapper (same shape as bench.WithYield) that
// deterministically injects spurious aborts, barrier delays and commit stalls
// into any inner engine.
//
// Its purpose is adversarial testing of the retry loop. Engines in this
// repository abort only when a real conflict (or lock timeout) occurs, which
// makes pathological schedules — spurious aborts, long commit sections, retry
// storms — hard to reach from workloads alone. The wrapper manufactures those
// schedules on demand while the inner engine keeps full responsibility for
// isolation, so any serializability violation found under chaos is a real
// engine bug, and any livelock is a real retry-loop bug.
//
// All randomized decisions are drawn from xrand streams derived
// deterministically from Options.Seed and a per-attempt counter: attempt i
// draws from the stream Mix(seed, i) regardless of goroutine scheduling, so a
// given (seed, attempt-index) pair always injects the same events.
package chaos

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stm"
	"repro/internal/xrand"
)

// Options tunes the injected faults. The zero value injects nothing.
type Options struct {
	// Seed selects the deterministic decision streams (0 behaves like 1).
	Seed uint64

	// AbortProb is the per-barrier probability of a spurious abort: the
	// transaction panics with stm.ReasonChaos from inside Read/Write, taking
	// the same path as an engine's early abort.
	AbortProb float64
	// AbortEvery injects a spurious abort on every Nth barrier (global
	// counter; 0 disables). Deterministic counterpart of AbortProb.
	AbortEvery int

	// DelayProb is the per-barrier probability of a delay, widening the
	// window in which transactions overlap (like bench.WithYield, but
	// randomized). Delay is the sleep per injected delay; 0 yields the
	// processor instead.
	DelayProb float64
	Delay     time.Duration

	// CommitFailProb is the per-update-commit probability of a forced commit
	// failure: the inner transaction is aborted and Commit reports false, as
	// if validation had failed. Read-only transactions are never failed (all
	// engines commit them unconditionally, and tests rely on it).
	CommitFailProb float64
	// CommitFailEvery forces every Nth update commit to fail (global
	// counter; 0 disables). Deterministic counterpart of CommitFailProb.
	CommitFailEvery int

	// StallProb is the per-update-commit probability of a stall before the
	// inner commit runs, simulating a slow commit section (descheduled
	// committer holding locks). Stall is the sleep per injected stall; 0
	// yields the processor instead.
	StallProb float64
	Stall     time.Duration
}

// Injected counts the faults delivered so far, by kind.
type Injected struct {
	Aborts      atomic.Uint64 // spurious barrier aborts
	CommitFails atomic.Uint64 // forced commit failures
	Delays      atomic.Uint64 // barrier delays
	Stalls      atomic.Uint64 // commit stalls
}

// TM wraps an inner engine with fault injection. It embeds the inner engine,
// which is reachable as the TM field, and overrides only the transaction
// lifecycle and Name, so every other method forwards by construction.
type TM struct {
	stm.TM
	opts Options

	attempts atomic.Uint64 // per-attempt stream derivation
	barriers atomic.Uint64 // AbortEvery counter
	commits  atomic.Uint64 // CommitFailEvery counter
	inj      Injected
	pool     sync.Pool // of *chaosTx wrappers
}

// New wraps inner with fault injection per opts.
func New(inner stm.TM, opts Options) *TM {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	t := &TM{TM: inner, opts: opts}
	t.pool.New = func() any { return &chaosTx{rng: xrand.New(1)} }
	return t
}

// Injected returns the live fault counters.
func (t *TM) Injected() *Injected { return &t.inj }

// Name implements stm.TM.
func (t *TM) Name() string { return t.TM.Name() + "+chaos" }

// EnableHistory implements stm.HistoryRecording when the inner engine does,
// so chaos-wrapped engines run under the dsg serializability oracle. It must
// be called before any variable is created.
func (t *TM) EnableHistory() {
	if h, ok := t.TM.(stm.HistoryRecording); ok {
		h.EnableHistory()
	}
}

// History implements stm.HistoryRecording when the inner engine does.
func (t *TM) History(v stm.Var) []stm.VersionRecord {
	if h, ok := t.TM.(stm.HistoryRecording); ok {
		return h.History(v)
	}
	return nil
}

// Begin implements stm.TM. Each attempt gets its own deterministic decision
// stream derived from (seed, attempt index).
func (t *TM) Begin(readOnly bool) stm.Tx {
	ct := t.pool.Get().(*chaosTx)
	ct.Tx, ct.tm = t.TM.Begin(readOnly), t
	ct.injected = stm.ReasonNone
	ct.rng.Reseed(xrand.Mix(t.opts.Seed + t.attempts.Add(1)*0x9E3779B97F4A7C15))
	return ct
}

// Recycle implements stm.TxRecycler: the wrapper returns to its own pool and
// the wrapped transaction is forwarded to the inner engine's recycler, so
// wrapping an engine in chaos never disables its descriptor pooling.
func (t *TM) Recycle(tx stm.Tx) {
	ct, ok := tx.(*chaosTx)
	if !ok {
		return
	}
	inner := ct.Tx
	ct.Tx = nil
	t.pool.Put(ct)
	t.TM.Recycle(inner)
}

// Commit implements stm.TM, injecting stalls and forced failures around the
// inner commit.
func (t *TM) Commit(tx stm.Tx) bool {
	ct := tx.(*chaosTx)
	o := &t.opts
	if ct.ReadOnly() {
		return t.TM.Commit(ct.Tx)
	}
	if o.StallProb > 0 && ct.rng.Bool(o.StallProb) {
		t.inj.Stalls.Add(1)
		pause(o.Stall)
	}
	fail := o.CommitFailEvery > 0 && t.commits.Add(1)%uint64(o.CommitFailEvery) == 0
	if !fail && o.CommitFailProb > 0 && ct.rng.Bool(o.CommitFailProb) {
		fail = true
	}
	if fail {
		t.TM.Abort(ct.Tx)
		ct.injected = stm.ReasonChaos
		t.inj.CommitFails.Add(1)
		return false
	}
	return t.TM.Commit(ct.Tx)
}

// Abort implements stm.TM.
func (t *TM) Abort(tx stm.Tx) {
	t.TM.Abort(tx.(*chaosTx).Tx)
}

// chaosTx embeds the inner transaction and forwards barriers to it, injecting
// delays and spurious aborts on the way.
type chaosTx struct {
	stm.Tx
	tm       *TM
	rng      *xrand.Rand
	injected stm.AbortReason // ReasonChaos when chaos failed the commit
}

// barrier runs the per-barrier injections: a delay first (widening overlap),
// then possibly a spurious abort.
func (ct *chaosTx) barrier() {
	o := &ct.tm.opts
	if o.DelayProb > 0 && ct.rng.Bool(o.DelayProb) {
		ct.tm.inj.Delays.Add(1)
		pause(o.Delay)
	}
	abort := o.AbortEvery > 0 && ct.tm.barriers.Add(1)%uint64(o.AbortEvery) == 0
	if !abort && o.AbortProb > 0 && ct.rng.Bool(o.AbortProb) {
		abort = true
	}
	if abort {
		ct.tm.inj.Aborts.Add(1)
		stm.Retry(stm.ReasonChaos)
	}
}

func (ct *chaosTx) Read(v stm.Var) stm.Value {
	ct.barrier()
	return ct.Tx.Read(v)
}

func (ct *chaosTx) Write(v stm.Var, val stm.Value) {
	ct.barrier()
	ct.Tx.Write(v, val)
}

// LastAbortReason implements stm.AbortReasoner: an injected commit failure
// reports ReasonChaos; otherwise the inner engine's reason is forwarded.
func (ct *chaosTx) LastAbortReason() stm.AbortReason {
	if ct.injected != stm.ReasonNone {
		return ct.injected
	}
	return ct.Tx.LastAbortReason()
}

// DurabilityErr forwards the inner descriptor's logger error, so the retry
// loop's *stm.LogFailedError and *stm.OutcomeUnknownError still wrap it when
// a durable engine runs under chaos.
func (ct *chaosTx) DurabilityErr() error {
	if d, ok := ct.Tx.(interface{ DurabilityErr() error }); ok {
		return d.DurabilityErr()
	}
	return nil
}

// pause sleeps for d, or yields the processor when d is zero.
func pause(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
		return
	}
	runtime.Gosched()
}
