// Negative golden for runner resolution: callees that merely look like the
// stm runner surface must not count as transaction entry points. Inside a
// real body, calling a user-defined AtomicallyLocal, a user method named
// Atomically without a body parameter, or even one that takes a
// func(stm.Tx) error draws no nested-transaction diagnostic: only the stm
// package's own Atomically* functions start a transaction.
package purity

import "repro/internal/stm"

// AtomicallyLocal shares the runner's prefix but is plain user code.
func AtomicallyLocal(tm stm.TM, readOnly bool, fn func(tx stm.Tx) error) error {
	return fn(nil)
}

type journal struct{}

// Atomically here is a user method with no transaction-body parameter.
func (journal) Atomically(step func() error) error { return step() }

type engine struct{}

// Atomically takes a transaction body but is still user code.
func (engine) Atomically(readOnly bool, fn func(tx stm.Tx) error) error { return fn(nil) }

func pureBody(tx stm.Tx) error { return nil }

func pureStep() error { return nil }

func lookalikes(tm stm.TM, j journal, e engine) {
	_ = stm.Atomically(tm, false, func(tx stm.Tx) error {
		_ = AtomicallyLocal(tm, false, pureBody) // prefix lookalike: clean
		_ = j.Atomically(pureStep)               // method lookalike: clean
		_ = e.Atomically(false, pureBody)        // body-taking method lookalike: clean
		return nil
	})
}
