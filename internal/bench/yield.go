package bench

import (
	"runtime"
	"sync"

	"repro/internal/stm"
)

// WithYield wraps a TM so that every transaction yields the processor after
// every `every`-th barrier (read or write). On the paper's 64-core machine,
// transactions from different threads genuinely overlap in time; on a
// single-core container they would otherwise run mostly back-to-back and
// almost never conflict. Injected yields put scheduler preemption points
// inside transactions, restoring the overlap that makes the paper's
// contention patterns (stale reads, anti-dependencies, triads) reachable.
// The cost is identical for every engine, so comparisons stay fair.
//
// every <= 0 returns tm unchanged.
func WithYield(tm stm.TM, every int) stm.TM {
	if every <= 0 {
		return tm
	}
	y := &yieldTM{TM: tm, every: every}
	y.pool.New = func() any { return &yieldTx{} }
	return y
}

// yieldTM embeds the inner engine and overrides only the transaction
// lifecycle, so every other method forwards by construction.
type yieldTM struct {
	stm.TM
	every int
	pool  sync.Pool // of *yieldTx wrappers
}

func (y *yieldTM) Begin(readOnly bool) stm.Tx {
	t := y.pool.Get().(*yieldTx)
	t.Tx, t.every, t.n = y.TM.Begin(readOnly), y.every, 0
	return t
}

// Recycle implements stm.TxRecycler: the wrapper returns to its own pool and
// the wrapped transaction is forwarded to the inner engine's recycler.
func (y *yieldTM) Recycle(tx stm.Tx) {
	t, ok := tx.(*yieldTx)
	if !ok {
		return
	}
	inner := t.Tx
	t.Tx = nil
	y.pool.Put(t)
	y.TM.Recycle(inner)
}

func (y *yieldTM) Commit(tx stm.Tx) bool { return y.TM.Commit(tx.(*yieldTx).Tx) }

func (y *yieldTM) Abort(tx stm.Tx) { y.TM.Abort(tx.(*yieldTx).Tx) }

// EnableHistory implements stm.HistoryRecording when the inner engine does.
// It must be called before any variable is created.
func (y *yieldTM) EnableHistory() {
	if h, ok := y.TM.(stm.HistoryRecording); ok {
		h.EnableHistory()
	}
}

// History implements stm.HistoryRecording when the inner engine does.
func (y *yieldTM) History(v stm.Var) []stm.VersionRecord {
	if h, ok := y.TM.(stm.HistoryRecording); ok {
		return h.History(v)
	}
	return nil
}

// yieldTx embeds the inner transaction, so ReadOnly and LastAbortReason
// forward; only the barriers yield.
type yieldTx struct {
	stm.Tx
	every int
	n     int
}

func (t *yieldTx) maybeYield() {
	t.n++
	if t.n >= t.every {
		t.n = 0
		runtime.Gosched()
	}
}

func (t *yieldTx) Read(v stm.Var) stm.Value {
	t.maybeYield()
	return t.Tx.Read(v)
}

func (t *yieldTx) Write(v stm.Var, val stm.Value) {
	t.maybeYield()
	t.Tx.Write(v, val)
}
