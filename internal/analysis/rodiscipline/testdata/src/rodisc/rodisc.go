// Package rodisc is twm-lint golden-test input: write-side operations that
// must be unreachable from transaction bodies started with readOnly=true.
package rodisc

import "repro/internal/stm"

func positives(tm stm.TM, x *stm.TVar[int]) {
	_ = stm.Atomically(tm, true, func(tx stm.Tx) error {
		x.Set(tx, 1)              // want `TVar.Set .a Tx.Write. inside a transaction body started with readOnly=true`
		tx.Write(x.Raw(), 2)      // want `Tx.Write inside a transaction body`
		stm.Retry(stm.ReasonUser) // want `stm.Retry inside a transaction body`
		bump(tx, x)               // want `call to bump, which reaches TVar.Set`
		chain(tx, x)              // want `call to chain, which reaches`
		return nil
	})
}

func bump(tx stm.Tx, x *stm.TVar[int]) { x.Set(tx, 9) }

func chain(tx stm.Tx, x *stm.TVar[int]) { bump(tx, x) }

func negatives(tm stm.TM, x *stm.TVar[int]) {
	// Reads and read-only helpers are the whole point of readOnly=true.
	_ = stm.Atomically(tm, true, func(tx stm.Tx) error {
		_ = x.Get(tx)
		observe(tx, x)
		return nil
	})
	// Update transactions may write freely.
	_ = stm.Atomically(tm, false, func(tx stm.Tx) error {
		x.Set(tx, 3)
		bump(tx, x)
		return nil
	})
	// A non-constant readOnly argument cannot be checked statically.
	ro := true
	_ = stm.Atomically(tm, ro, func(tx stm.Tx) error {
		x.Set(tx, 4)
		return nil
	})
}

func observe(tx stm.Tx, x *stm.TVar[int]) { _ = x.Get(tx) }

// The other entry points carry the same readOnly discipline: their bodies
// are transaction bodies, and the constant readOnly argument is theirs (it
// follows a context there, so it is found by type, not by position).
func ctxPositives(tm stm.TM, x *stm.TVar[int]) {
	_ = stm.AtomicallyCtx(nil, tm, true, func(tx stm.Tx) error {
		x.Set(tx, 5) // want `TVar.Set .a Tx.Write. inside a transaction body started with readOnly=true`
		bump(tx, x)  // want `call to bump, which reaches TVar.Set`
		return nil
	})
}

func gatedNegatives(tm stm.TM, x *stm.TVar[int]) {
	_ = stm.AtomicallyGated(nil, tm, true, nil, func(tx stm.Tx) error {
		_ = x.Get(tx)
		observe(tx, x)
		return nil
	})
	// Gated update transactions may write freely.
	_ = stm.AtomicallyGated(nil, tm, false, nil, func(tx stm.Tx) error {
		x.Set(tx, 6)
		return nil
	})
}

// The framework-level //twm:allow directive suppresses rodiscipline
// findings like any other rule.
func allowedWrite(tm stm.TM, x *stm.TVar[int]) {
	_ = stm.Atomically(tm, true, func(tx stm.Tx) error {
		x.Set(tx, 9) //twm:allow rodiscipline exercising the engine's read-only write rejection on purpose
		return nil
	})
}
