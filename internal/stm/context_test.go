package stm

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestAtomicallyCtxCommits(t *testing.T) {
	tm := &fakeTM{}
	v := tm.NewVar(0)
	if err := AtomicallyCtx(context.Background(), tm, false, func(tx Tx) error {
		tx.Write(v, 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if tm.commits != 1 {
		t.Fatalf("commits = %d", tm.commits)
	}
}

func TestAtomicallyCtxCancelledBeforeStart(t *testing.T) {
	tm := &fakeTM{}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	runs := 0
	err := AtomicallyCtx(ctx, tm, false, func(Tx) error {
		runs++
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if runs != 0 {
		t.Fatalf("body ran %d times after cancellation", runs)
	}
}

func TestAtomicallyCtxStopsRetrying(t *testing.T) {
	// A TM that always rejects commits: without cancellation the call would
	// retry forever; the deadline must end it.
	tm := &fakeTM{failCommits: 1 << 30}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := AtomicallyCtx(ctx, tm, false, func(Tx) error { return nil })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("cancellation took too long")
	}
	// fakeTM has no AbortReasoner, so its failed commits read as write
	// conflicts; the error carries the last one.
	var ce *CancelledError
	if !errors.As(err, &ce) || ce.Attempts < 1 || ce.Reason != ReasonWriteConflict {
		t.Fatalf("err = %+v, want *CancelledError{Attempts>=1, Reason: write-conflict}", err)
	}
}

func TestAtomicallyCtxCancelledMidWait(t *testing.T) {
	// Every commit fails, so the call is aborting or backing off when the
	// cancellation lands: it must surface a *CancelledError promptly.
	tm := &fakeTM{failCommits: 1 << 30}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err := AtomicallyCtx(ctx, tm, false, func(Tx) error { return nil })
	elapsed := time.Since(start)
	var ce *CancelledError
	if !errors.As(err, &ce) {
		t.Fatalf("err=%v, want *CancelledError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("CancelledError must unwrap to context.Canceled, got %v", err)
	}
	if ce.Attempts < 1 {
		t.Fatalf("attempts=%d, want at least the attempt that was waited on", ce.Attempts)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation mid-wait took %v; must return promptly", elapsed)
	}
}

func TestCancelledErrorMessage(t *testing.T) {
	e := &CancelledError{Attempts: 3, Reason: ReasonTriad, Err: context.DeadlineExceeded}
	if !errors.Is(e, context.DeadlineExceeded) {
		t.Fatalf("CancelledError broken: %v", e)
	}
	// The text is wire protocol (the server's 499/504 bodies): the reason
	// must not leak into it.
	if got, want := e.Error(), "stm: transaction cancelled after 3 attempts: context deadline exceeded"; got != want {
		t.Fatalf("Error() = %q, want %q", got, want)
	}
}

func TestAtomicallyCtxUserError(t *testing.T) {
	tm := &fakeTM{}
	boom := errors.New("boom")
	if err := AtomicallyCtx(context.Background(), tm, false, func(Tx) error {
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}
