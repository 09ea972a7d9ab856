package stm

import (
	"context"
	"fmt"
)

// CancelledError is returned by AtomicallyCtx and AtomicallyGated when the
// context is cancelled or its deadline expires before the transaction
// commits. It is distinct from both user errors (returned verbatim from the
// body) and engine aborts (which retry silently): the transaction made no
// durable change, and Attempts reports how many attempts had aborted before
// the loop gave up. Unwrap yields the context's own error, so
// errors.Is(err, context.Canceled) and errors.Is(err, context.DeadlineExceeded)
// work as usual.
type CancelledError struct {
	// Attempts counts fully-finished (aborted) attempts before cancellation
	// was observed.
	Attempts int
	// Reason is why the last of those attempts aborted; ReasonNone when the
	// call was cancelled before any attempt ran or while queued at the gate.
	// Error() does not print it.
	Reason AbortReason
	// Err is the context's error: context.Canceled or context.DeadlineExceeded.
	Err error
}

// Error implements error.
func (e *CancelledError) Error() string {
	return fmt.Sprintf("stm: transaction cancelled after %d attempts: %v", e.Attempts, e.Err)
}

// Unwrap exposes the context's error to errors.Is/As.
func (e *CancelledError) Unwrap() error { return e.Err }

// AtomicallyCtx is Atomically with cancellation: between retry attempts it
// checks ctx and gives up with a *CancelledError once the context is done.
// Cancellation also cuts a backoff sleep short, so the call returns promptly
// even when cancelled mid-wait. A transaction attempt already in flight is
// never interrupted midway (there is no preemption point inside an attempt),
// so a cancelled call returns only from a consistent state: either before
// starting an attempt or after one aborted.
//
// Use it for request-scoped work where livelock under pathological
// contention must be bounded by a deadline rather than by backoff alone.
func AtomicallyCtx(ctx context.Context, tm TM, readOnly bool, fn func(Tx) error) error {
	return run(ctx, tm, readOnly, nil, fn)
}

// AtomicallyGated is AtomicallyCtx behind an admission gate: the call is
// admitted through g before its first attempt and occupies one gate slot until
// it finishes. When g is saturated the call waits boundedly and gives up with
// a *OverloadError (or a *CancelledError when ctx is cancelled first), so
// saturation becomes backpressure at the door instead of an abort storm
// inside the engine. Read-only calls bypass the gate. A nil g and ctx reduce
// to plain Atomically.
func AtomicallyGated(ctx context.Context, tm TM, readOnly bool, g *AdmissionGate, fn func(Tx) error) error {
	return run(ctx, tm, readOnly, g, fn)
}
