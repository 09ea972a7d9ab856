package stm

import (
	"context"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/xrand"
)

// AbortReason classifies why an engine restarted a transaction. The TWM paper
// distinguishes aborts caused by the classic validation rule from those caused
// by its triad rule; the bench harness reports the split.
type AbortReason uint8

const (
	// ReasonNone is used for bookkeeping slots that never fired.
	ReasonNone AbortReason = iota
	// ReasonReadConflict: a read observed state newer than the snapshot
	// allows (classic validation failure on the read side).
	ReasonReadConflict
	// ReasonWriteConflict: commit-time write/write conflict or failure to
	// acquire ownership of a written variable.
	ReasonWriteConflict
	// ReasonTriad: TWM Rule 2 — committing would make the transaction the
	// time-warping pivot of a triad (source and target flags both raised).
	ReasonTriad
	// ReasonTimeWarpSkip: TWM early abort — an update transaction skipped a
	// version committed by a concurrent time-warping transaction
	// (natOrder != twOrder above the snapshot).
	ReasonTimeWarpSkip
	// ReasonLockTimeout: bounded spinning on a peer's commit lock expired;
	// the transaction self-aborts to avoid deadlock (substitution for the
	// lock-free commit of the paper's prototype).
	ReasonLockTimeout
	// ReasonIntervalEmpty: AVSTM — the transaction's validity interval
	// (lb, ub) became empty, so no serialization point exists.
	ReasonIntervalEmpty
	// ReasonUser: explicit Retry requested by user code.
	ReasonUser
	// ReasonChaos: a fault injected by the internal/chaos middleware (spurious
	// abort or forced commit failure). Never produced by a real engine.
	ReasonChaos
	// ReasonOverload: an admission gate refused entry (OverloadError). The
	// retry loop records it into the engine's stats so saturation shows up in
	// the retries-by-reason histogram; no engine ever produces it and no
	// attempt ran.
	ReasonOverload
	// ReasonDurability: the engine's CommitLogger has latched a failure, so
	// the commit failed at the door, before installing any version — an
	// acknowledged commit must never be less durable than the fsync policy
	// promises. The latch is permanent, so these aborts persist until the
	// operator replaces the log (the health watchdog's WAL-stall condition
	// surfaces the state).
	ReasonDurability

	numAbortReasons
)

// String returns a short stable label for the reason.
func (r AbortReason) String() string {
	switch r {
	case ReasonNone:
		return "none"
	case ReasonReadConflict:
		return "read-conflict"
	case ReasonWriteConflict:
		return "write-conflict"
	case ReasonTriad:
		return "triad"
	case ReasonTimeWarpSkip:
		return "timewarp-skip"
	case ReasonLockTimeout:
		return "lock-timeout"
	case ReasonIntervalEmpty:
		return "interval-empty"
	case ReasonUser:
		return "user"
	case ReasonChaos:
		return "chaos"
	case ReasonOverload:
		return "overload"
	case ReasonDurability:
		return "durability"
	}
	return "unknown"
}

// retrySignal is the sentinel panic value used for non-local aborts from
// inside transaction bodies (the Go analogue of Deuce's abort exception).
type retrySignal struct {
	reason AbortReason
}

// Retry aborts the current transaction and re-executes it from the top. It
// must be called (directly or transitively) from inside an Atomically body.
// Engines use it for early aborts discovered during Read; user code may use it
// to wait for a state change (the retry is subject to backoff).
func Retry(reason AbortReason) {
	panic(retrySignal{reason: reason})
}

// TxRecycler is implemented by engines that pool transaction descriptors.
// Atomically calls Recycle exactly once per attempt, after the attempt has
// fully finished (committed, failed validation, aborted on a retry signal, or
// returned a user error) and the Tx can never be observed again. Recycle
// resets the descriptor — including the backing arrays of its read and write
// sets — and returns it to the engine's pool, so the next Begin (often the
// immediate retry of the same transaction) reuses the memory instead of
// re-allocating it.
//
// Contract for fn bodies run under Atomically against a pooling engine: the
// Tx must not be retained or used after the body returns. Code that needs to
// inspect a transaction after commit (e.g. core's CommitOrders) must drive
// the engine through the manual Begin/Commit API, which never recycles.
type TxRecycler interface {
	Recycle(tx Tx)
}

// AbortReasoner is implemented by transaction descriptors that remember why
// the engine last aborted them. Read-path aborts carry their reason in the
// retry signal, but a Commit that returns false has no other channel: the
// engine records the reason on the descriptor before returning, and the retry
// loop reads it back (before recycling) so a *CancelledError can say why the
// last attempt failed. Engines that do not implement it are assumed to fail
// commits only on write/write conflicts.
type AbortReasoner interface {
	LastAbortReason() AbortReason
}

// Atomically executes fn as a transaction of tm, retrying until it commits.
//
// fn may be executed several times; it must be idempotent apart from its
// transactional reads and writes. Returning a non-nil error aborts the
// transaction without retrying and returns that error (user-level abort).
// Panics other than retry signals propagate after the engine cleans up.
//
// Retries use randomized exponential backoff (the schedule of the Backoff
// type). AtomicallyCtx bounds the retry loop with a context; AtomicallyGated
// also admits the call through an AdmissionGate.
func Atomically(tm TM, readOnly bool, fn func(Tx) error) error {
	return run(nil, tm, readOnly, nil, fn)
}

// run is the one retry loop, behind Atomically, AtomicallyCtx and
// AtomicallyGated. ctx and gate may both be nil; the Backoff schedule runs
// inline (no interface calls, no allocation — the hot path of every
// benchmark).
//
// A non-nil gate admits the call before the first attempt and holds the slot
// until the call finishes (commit, user error, or cancellation) — retries and
// backoff happen inside the slot, so saturation queues new update work at the
// door instead of multiplying in-flight contenders. Read-only transactions
// bypass the gate: they hold no locks and (on the multi-versioned engines)
// never abort, so they are not what an abort storm is made of.
func run(ctx context.Context, tm TM, readOnly bool, gate *AdmissionGate, fn func(Tx) error) error {
	if gate != nil && !readOnly {
		if err := gate.Acquire(ctx); err != nil {
			if _, ok := err.(*OverloadError); ok {
				// Surface the shed load in the engine's histogram: an
				// overload is a transaction the system refused to run.
				tm.Stats().RecordAbort(ReasonOverload)
			}
			return err
		}
		defer gate.Release()
	}
	rec, _ := tm.(TxRecycler)
	var bo Backoff
	last := ReasonNone // why the previous attempt aborted
	for attempt := 1; ; attempt++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return &CancelledError{Attempts: attempt - 1, Reason: last, Err: err}
			}
		}
		tx := tm.Begin(readOnly)
		err, reason, retry := runOnce(tm, rec, tx, fn)
		if rec != nil {
			rec.Recycle(tx)
		}
		if !retry {
			return err
		}
		last = reason
		bo.WaitCtx(ctx)
	}
}

// runOnce executes one attempt of fn, mapping retry-signal panics to a retry
// request and committing on success. On retry it reports why the attempt
// aborted: read-path aborts carry the reason in the retry signal; commit
// failures are read back from the descriptor via AbortReasoner (defaulting to
// ReasonWriteConflict for engines that do not implement it).
func runOnce(tm TM, rec TxRecycler, tx Tx, fn func(Tx) error) (err error, reason AbortReason, retry bool) {
	defer func() {
		if r := recover(); r != nil {
			tm.Abort(tx)
			if sig, ok := r.(retrySignal); ok {
				reason, retry = sig.reason, true
				return
			}
			// A non-retry panic unwinds past the retry loop, so run's own
			// recycle never executes: the descriptor — already aborted, never
			// observable again — must return to the pool here or it is lost
			// for the life of the process (one body panic per pooled
			// descriptor would drain the pool entirely).
			if rec != nil {
				rec.Recycle(tx)
			}
			panic(r)
		}
	}()
	if err := fn(tx); err != nil {
		tm.Abort(tx)
		return err, ReasonNone, false
	}
	if tm.Commit(tx) {
		return nil, ReasonNone, false
	}
	reason = ReasonWriteConflict
	if ar, ok := tx.(AbortReasoner); ok {
		if r := ar.LastAbortReason(); r != ReasonNone {
			reason = r
		}
	}
	return nil, reason, true
}

// Backoff implements randomized exponential backoff between transaction
// retries. The zero value is ready to use. The first few retries merely yield
// the processor (cheap on contended single-core schedules); later retries
// sleep for a bounded, randomized exponential duration.
type Backoff struct {
	attempt int
	rng     uint64
}

// backoff tuning. Caps keep worst-case latency bounded under pathological
// contention while still separating contenders in time.
const (
	backoffYields   = 2
	backoffBaseNS   = 1 << 10 // ~1us
	backoffMaxShift = 10      // cap at ~1ms
)

// backoffSeq distinguishes Backoff streams created anywhere in the process.
// Seeding from the clock looked random but was not: goroutines entering
// backoff in the same nanosecond got byte-identical xorshift streams and
// backed off in lockstep, defeating the randomization exactly when it matters
// (a contention storm sends many losers into backoff together).
var backoffSeq atomic.Uint64

// Wait blocks for the next backoff period and advances the schedule.
func (b *Backoff) Wait() { b.WaitCtx(nil) }

// WaitCtx is Wait with early wake-up: when ctx is non-nil and is cancelled
// mid-sleep, the wait is cut short (the caller re-checks the context).
func (b *Backoff) WaitCtx(ctx context.Context) {
	b.attempt++
	if b.attempt <= backoffYields {
		runtime.Gosched()
		return
	}
	if b.rng == 0 {
		// Seed lazily from a process-wide counter mixed through the
		// SplitMix64 finalizer: every Backoff gets a distinct, well-spread
		// stream with no clock dependence and no global rand lock.
		b.rng = xrand.Mix(backoffSeq.Add(1)) | 1
	}
	b.rng ^= b.rng << 13
	b.rng ^= b.rng >> 7
	b.rng ^= b.rng << 17
	shift := b.attempt - backoffYields
	if shift > backoffMaxShift {
		shift = backoffMaxShift
	}
	window := uint64(backoffBaseNS) << uint(shift)
	sleepCtx(ctx, time.Duration(b.rng%window))
}

// Reset returns the backoff schedule to its initial state.
func (b *Backoff) Reset() { b.attempt = 0 }

// sleepCtx sleeps for d, returning early if ctx is cancelled. Short sleeps
// (below ~100us) are not worth a timer plus select; cancellation latency is
// bounded by the sleep itself in that regime.
func sleepCtx(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	if ctx == nil || d < 100*time.Microsecond {
		time.Sleep(d)
		return
	}
	done := ctx.Done()
	if done == nil {
		time.Sleep(d)
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-done:
	}
}
