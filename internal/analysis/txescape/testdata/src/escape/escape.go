// Package escape is twm-lint golden-test input: every way an stm.Tx may
// (and may not) leave the transaction body that received it.
package escape

import (
	"repro/internal/stm"
)

type holder struct{ tx stm.Tx }

var globalTx stm.Tx

func positives(tm stm.TM, ch chan stm.Tx, h *holder) {
	var leaked stm.Tx
	_ = stm.Atomically(tm, false, func(tx stm.Tx) error {
		go func() { // want `Tx captured by goroutine`
			_ = tx.Read(nil)
		}()
		ch <- tx                // want `Tx sent on a channel`
		h.tx = tx               // want `Tx assigned to a field`
		_ = holder{tx: tx}      // want `Tx stored in a composite literal`
		_ = []stm.Tx{tx}        // want `Tx stored in a composite literal`
		globalTx = tx           // want `outlives the transaction body`
		leaked = tx             // want `outlives the transaction body`
		m := make(map[int]stm.Tx)
		m[0] = tx // want `Tx stored in a slice/map element`
		return nil
	})
	_ = leaked
}

func negatives(tm stm.TM, x *stm.TVar[int]) {
	_ = stm.Atomically(tm, false, func(tx stm.Tx) error {
		alias := tx // fresh local alias inside the body: allowed
		helper(alias, x)
		helper(tx, x) // passing Tx down the call tree is the intended style
		v := x.Get(tx)
		x.Set(tx, v+1)
		return nil
	})
}

// The other entry points are transaction-body roots like Atomically: the
// body of an AtomicallyCtx or AtomicallyGated call is under the same escape
// discipline.
func ctxPositives(tm stm.TM, ch chan stm.Tx) {
	var leaked stm.Tx
	_ = stm.AtomicallyCtx(nil, tm, false, func(tx stm.Tx) error {
		ch <- tx    // want `Tx sent on a channel`
		leaked = tx // want `outlives the transaction body`
		return nil
	})
	_ = leaked
}

func gatedNegatives(tm stm.TM, x *stm.TVar[int]) {
	_ = stm.AtomicallyGated(nil, tm, false, nil, func(tx stm.Tx) error {
		helper(tx, x)
		x.Set(tx, x.Get(tx)+1)
		return nil
	})
}

func helper(tx stm.Tx, x *stm.TVar[int]) { _ = x.Get(tx) }

// The framework-level //twm:allow directive suppresses txescape findings
// like any other rule.
func allowedEscape(tm stm.TM, ch chan stm.Tx) {
	_ = stm.Atomically(tm, false, func(tx stm.Tx) error {
		//twm:allow txescape test fixture hands its Tx to a cooperating goroutine it joins before returning
		ch <- tx
		return nil
	})
}
