package stm

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"
)

// OverloadError is returned by AtomicallyGated when the admission
// gate stayed saturated for the whole bounded wait. No attempt ran and no
// durable change was made; the caller should shed the request (or retry it
// with its own higher-level policy). It is the load-shedding counterpart of
// *CancelledError.
type OverloadError struct {
	// Limit is the gate's concurrent-transaction cap.
	Limit int
	// Wait is how long the call queued before giving up.
	Wait time.Duration
}

// Error implements error.
func (e *OverloadError) Error() string {
	return fmt.Sprintf("stm: admission gate saturated (%d in flight) after waiting %v", e.Limit, e.Wait)
}

// AdmissionGate caps the number of concurrently in-flight update transactions
// admitted through it. Without a gate, saturation in an STM shows up as an
// abort storm: every extra contender past the conflict capacity of the
// variable set converts throughput into retries. The gate converts the same
// saturation into backpressure — excess calls queue boundedly at the door and
// are refused with *OverloadError once the wait limit expires — which keeps
// the engine inside its productive regime and gives callers an explicit
// overload signal to act on.
//
// A slot is held for the whole Atomically call (all attempts and backoff),
// not per attempt: releasing between attempts would re-admit the retry storm
// the gate exists to prevent. Read-only transactions bypass gates entirely.
//
// The zero value is not usable; construct with NewAdmissionGate. A gate may
// be shared by any number of goroutines.
type AdmissionGate struct {
	slots   chan struct{}
	maxWait time.Duration

	admitted  atomic.Uint64
	overloads atomic.Uint64
	cancels   atomic.Uint64
	waiting   atomic.Int64
}

// testHookShedRecheck, when non-nil, runs inside Acquire's pure-shed window —
// after the saturated fast path, before the final shed decision. Tests use it
// to free a slot at exactly the racing instant; always nil outside tests.
var testHookShedRecheck func()

// NewAdmissionGate returns a gate admitting at most limit concurrent update
// transactions. A queued call waits up to maxWait for a slot before giving up
// with *OverloadError; maxWait <= 0 selects pure load shedding (a saturated
// gate refuses immediately). limit must be positive.
func NewAdmissionGate(limit int, maxWait time.Duration) *AdmissionGate {
	if limit <= 0 {
		panic("stm: AdmissionGate limit must be positive")
	}
	return &AdmissionGate{slots: make(chan struct{}, limit), maxWait: maxWait}
}

// Limit returns the gate's concurrent-transaction cap.
func (g *AdmissionGate) Limit() int { return cap(g.slots) }

// Acquire takes one slot, queueing up to the gate's wait bound. It returns
// nil on admission, *OverloadError when the wait bound expires, and
// *CancelledError when ctx is cancelled first — cancellation is honored while
// blocked in the gate, not only between attempts, so a queued call unblocks
// promptly. A nil ctx never cancels.
func (g *AdmissionGate) Acquire(ctx context.Context) error {
	select {
	case g.slots <- struct{}{}:
		g.admitted.Add(1)
		return nil
	default:
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			g.cancels.Add(1)
			return &CancelledError{Err: err}
		}
	}
	if g.maxWait <= 0 {
		if h := testHookShedRecheck; h != nil {
			h()
		}
		// Re-offer once before refusing: a slot freed between the saturated
		// fast path above and this decision would otherwise surface as a
		// spurious *OverloadError — the gate shedding load while a slot sits
		// free. One non-blocking retry closes the window the pure-shed path
		// is responsible for (the remaining race, a slot freed after this
		// select, is indistinguishable from the request simply arriving
		// earlier).
		select {
		case g.slots <- struct{}{}:
			g.admitted.Add(1)
			return nil
		default:
		}
		g.overloads.Add(1)
		return &OverloadError{Limit: cap(g.slots)}
	}
	// Only a wait needs the done channel: a context that arms its deadline
	// lazily (the server's) would otherwise arm it for every shed refusal.
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	g.waiting.Add(1)
	defer g.waiting.Add(-1)
	timer := time.NewTimer(g.maxWait)
	defer timer.Stop()
	select {
	case g.slots <- struct{}{}:
		g.admitted.Add(1)
		return nil
	case <-timer.C:
		g.overloads.Add(1)
		return &OverloadError{Limit: cap(g.slots), Wait: g.maxWait}
	case <-done:
		g.cancels.Add(1)
		return &CancelledError{Err: ctx.Err()}
	}
}

// Release returns one slot. It must pair with a successful Acquire.
func (g *AdmissionGate) Release() {
	select {
	case <-g.slots:
	default:
		panic("stm: AdmissionGate.Release without Acquire")
	}
}

// InFlight reports currently admitted calls.
func (g *AdmissionGate) InFlight() int { return len(g.slots) }

// Waiting reports calls currently queued at the gate.
func (g *AdmissionGate) Waiting() int64 { return g.waiting.Load() }

// Admitted reports total admissions so far.
func (g *AdmissionGate) Admitted() uint64 { return g.admitted.Load() }

// Overloads reports total refusals (OverloadError) so far.
func (g *AdmissionGate) Overloads() uint64 { return g.overloads.Load() }

// Cancels reports total queued calls that left on context cancellation.
func (g *AdmissionGate) Cancels() uint64 { return g.cancels.Load() }
