package stm

import (
	"context"
	"errors"
	"testing"
)

// The retry loop's specification as one table: scripted attempt outcomes in,
// observed effects out. Every row runs with no gate, with a free gate and with
// a saturated gate, so each exit of run (doCommit, user error, cancellation,
// overload, foreign panic) is checked for the two things it must never drop:
// the descriptor's recycle and the gate slot's release.

type outcome uint8

const (
	doCommit      outcome = iota // body returns nil, Commit returns true
	doCommitFalse                // body returns nil, Commit returns false (reason read back via AbortReasoner)
	doRetry                      // body calls Retry(reason)
	doUserError                  // body returns errScripted
	doPanic                      // body panics with panicScripted
)

type step struct {
	outcome outcome
	reason  AbortReason
}

var errScripted = errors.New("scripted user error")

const panicScripted = "scripted body panic"

// scriptTM replays one step per attempt and keeps the books the table asserts
// on. It pools nothing; Recycle only checks that each descriptor comes back
// exactly once, after its attempt finished.
type scriptTM struct {
	t        *testing.T
	stats    Stats
	script   []step
	cancelAt int                // attempt whose Begin cancels the context (0: never)
	cancel   context.CancelFunc // set with cancelAt

	begins, commits, aborts, recycles int
	live                              *scriptTx // begun, not yet recycled
}

type scriptTx struct {
	step     step
	finished bool // Commit or Abort ran
	last     AbortReason
}

func (m *scriptTM) Name() string             { return "script" }
func (m *scriptTM) NewVar(initial Value) Var { return &fakeVar{val: initial} }
func (m *scriptTM) Stats() *Stats            { return &m.stats }

func (m *scriptTM) Begin(bool) Tx {
	if m.live != nil {
		m.t.Errorf("Begin %d before attempt %d was recycled", m.begins+1, m.begins)
	}
	if m.begins >= len(m.script) {
		m.t.Errorf("attempt %d past the end of the script", m.begins+1)
		m.script = append(m.script, step{outcome: doCommit})
	}
	m.begins++
	if m.begins == m.cancelAt {
		m.cancel()
	}
	m.live = &scriptTx{step: m.script[m.begins-1]}
	return m.live
}

func (m *scriptTM) Commit(tx Tx) bool {
	t := tx.(*scriptTx)
	t.finished = true
	if t.step.outcome == doCommitFalse {
		t.last = t.step.reason
		return false
	}
	m.commits++
	return true
}

func (m *scriptTM) Abort(tx Tx) {
	tx.(*scriptTx).finished = true
	m.aborts++
}

func (m *scriptTM) Recycle(tx Tx) {
	t := tx.(*scriptTx)
	switch {
	case t != m.live:
		m.t.Errorf("Recycle of a descriptor that is not the live one (double recycle?)")
	case !t.finished:
		m.t.Errorf("Recycle before Commit or Abort")
	}
	m.live = nil
	m.recycles++
}

func (t *scriptTx) Read(v Var) Value             { return v.(*fakeVar).val }
func (t *scriptTx) Write(Var, Value)             {}
func (t *scriptTx) ReadOnly() bool               { return false }
func (t *scriptTx) LastAbortReason() AbortReason { return t.last }

// scriptedBody is the transaction body of every row: it acts out the
// attempt's step.
func scriptedBody(tx Tx) error {
	switch st := tx.(*scriptTx).step; st.outcome {
	case doRetry:
		Retry(st.reason)
	case doUserError:
		return errScripted
	case doPanic:
		panic(panicScripted)
	}
	return nil
}

type ctxMode uint8

const (
	nilCtx ctxMode = iota
	liveCtx
	preCancelled
	cancelledAfter // cancelled as attempt row.cancelAt begins
)

type result uint8

const (
	wantNil result = iota
	wantUserErr
	wantCancelled
	wantPanic
)

func TestRunLoop(t *testing.T) {
	rows := []struct {
		name     string
		script   []step
		ctx      ctxMode
		cancelAt int
		readOnly bool

		want     result
		attempts int         // wantCancelled: CancelledError.Attempts
		reason   AbortReason // wantCancelled: CancelledError.Reason
		begins   int
		aborts   int // TM.Abort calls: retry signals, user errors and panics, never failed commits
	}{
		{name: "commits first try", script: []step{{doCommit, 0}},
			want: wantNil, begins: 1},
		{name: "commits first try, live ctx", script: []step{{doCommit, 0}}, ctx: liveCtx,
			want: wantNil, begins: 1},
		{name: "read-only bypasses the gate", script: []step{{doCommit, 0}}, ctx: liveCtx, readOnly: true,
			want: wantNil, begins: 1},
		{name: "failed commits retry", script: []step{{doCommitFalse, ReasonTriad}, {doCommitFalse, ReasonNone}, {doCommit, 0}},
			want: wantNil, begins: 3},
		{name: "retry signals retry", script: []step{{doRetry, ReasonUser}, {doRetry, ReasonTimeWarpSkip}, {doCommit, 0}}, ctx: liveCtx,
			want: wantNil, begins: 3, aborts: 2},
		{name: "user error is verbatim and final", script: []step{{doCommitFalse, ReasonLockTimeout}, {doUserError, 0}},
			want: wantUserErr, begins: 2, aborts: 1},
		{name: "body panic propagates", script: []step{{doPanic, 0}}, ctx: liveCtx,
			want: wantPanic, begins: 1, aborts: 1},
		{name: "body panic after a retry", script: []step{{doRetry, ReasonReadConflict}, {doPanic, 0}},
			want: wantPanic, begins: 2, aborts: 2},
		{name: "cancelled before the first attempt", script: nil, ctx: preCancelled,
			want: wantCancelled, attempts: 0, reason: ReasonNone},
		{name: "cancelled after a failed commit", script: []step{{doCommitFalse, ReasonLockTimeout}}, ctx: cancelledAfter, cancelAt: 1,
			want: wantCancelled, attempts: 1, reason: ReasonLockTimeout, begins: 1},
		{name: "cancelled after a reasonless failed commit", script: []step{{doRetry, ReasonReadConflict}, {doCommitFalse, ReasonNone}}, ctx: cancelledAfter, cancelAt: 2,
			want: wantCancelled, attempts: 2, reason: ReasonWriteConflict, begins: 2, aborts: 1},
		{name: "cancelled after a retry signal", script: []step{{doCommitFalse, ReasonWriteConflict}, {doRetry, ReasonTriad}}, ctx: cancelledAfter, cancelAt: 2,
			want: wantCancelled, attempts: 2, reason: ReasonTriad, begins: 2, aborts: 1},
		{name: "a commit outruns its cancellation", script: []step{{doCommitFalse, ReasonTriad}, {doCommit, 0}}, ctx: cancelledAfter, cancelAt: 2,
			want: wantNil, begins: 2},
		{name: "a user error outruns its cancellation", script: []step{{doUserError, 0}}, ctx: cancelledAfter, cancelAt: 1,
			want: wantUserErr, begins: 1, aborts: 1},
	}
	for _, row := range rows {
		for _, gateMode := range []string{"no gate", "free gate", "saturated gate"} {
			t.Run(row.name+"/"+gateMode, func(t *testing.T) {
				tm := &scriptTM{t: t, script: row.script, cancelAt: row.cancelAt}
				var ctx context.Context
				if row.ctx != nilCtx {
					var cancel context.CancelFunc
					ctx, cancel = context.WithCancel(context.Background())
					defer cancel()
					tm.cancel = cancel
					if row.ctx == preCancelled {
						cancel()
					}
				}
				var gate *AdmissionGate
				if gateMode != "no gate" {
					gate = NewAdmissionGate(1, 0)
				}
				want, begins, aborts, attempts, reason := row.want, row.begins, row.aborts, row.attempts, row.reason
				shed := false
				if gateMode == "saturated gate" {
					if err := gate.Acquire(nil); err != nil {
						t.Fatal(err)
					}
					if !row.readOnly {
						// Nothing runs: the door answers, with the context's
						// verdict first when it already has one.
						begins, aborts, attempts, reason = 0, 0, 0, ReasonNone
						want, shed = wantCancelled, row.ctx != preCancelled
					}
				}

				var err error
				var panicked any
				func() {
					defer func() { panicked = recover() }()
					err = AtomicallyGated(ctx, tm, row.readOnly, gate, scriptedBody)
				}()

				var ce *CancelledError
				var oe *OverloadError
				switch {
				case shed:
					if !errors.As(err, &oe) || oe.Limit != 1 {
						t.Errorf("err = %v, want *OverloadError{Limit: 1}", err)
					}
				case want == wantNil:
					if err != nil || panicked != nil {
						t.Errorf("err = %v, panic = %v, want a commit", err, panicked)
					}
				case want == wantUserErr:
					if err != errScripted {
						t.Errorf("err = %v, want the body's error verbatim", err)
					}
				case want == wantCancelled:
					if !errors.As(err, &ce) || !errors.Is(err, context.Canceled) {
						t.Errorf("err = %v, want *CancelledError wrapping context.Canceled", err)
					} else if ce.Attempts != attempts || ce.Reason != reason {
						t.Errorf("CancelledError{Attempts: %d, Reason: %v}, want {%d, %v}", ce.Attempts, ce.Reason, attempts, reason)
					}
				case want == wantPanic:
					if panicked != panicScripted {
						t.Errorf("recovered %v (err = %v), want the body's panic value", panicked, err)
					}
				}
				if want != wantPanic && panicked != nil {
					t.Errorf("unexpected panic: %v", panicked)
				}

				if tm.begins != begins || tm.aborts != aborts {
					t.Errorf("begins = %d, aborts = %d, want %d and %d", tm.begins, tm.aborts, begins, aborts)
				}
				if tm.recycles != tm.begins {
					t.Errorf("recycles = %d, begins = %d: every attempt's descriptor must come back exactly once", tm.recycles, tm.begins)
				}
				if committed := tm.commits == 1; tm.commits > 1 || committed != (want == wantNil) {
					t.Errorf("commits = %d, want one exactly when the call returns nil", tm.commits)
				}
				if n := tm.stats.Snapshot().ByReason[ReasonOverload.String()]; n > 1 || (n == 1) != shed {
					t.Errorf("ReasonOverload recorded %d times, want one exactly when the gate shed", n)
				}
				if gate != nil {
					if gateMode == "saturated gate" {
						gate.Release() // the test's own slot; panics if run released it
					}
					if n := gate.InFlight(); n != 0 {
						t.Errorf("gate in-flight = %d after the call, want 0", n)
					}
				}
			})
		}
	}
}
