// Histories replays the example executions from the paper — the Fig. 1
// linked-list history of §1.1 and the four abstract histories of Fig. 2
// and the read-only and commit-time histories of the stamp-elision rule
// (internal/histories) — against the real TWM engine, printing the decision
// it takes for each transaction (commit in the present, time-warp commit in
// the past, or abort) together with the two commit orders N and TW.
//
// Run with:
//
//	go run ./examples/histories
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/histories"
)

func main() {
	all := append(histories.Paper(), histories.ReadOnlyElision()...)
	for _, h := range append(all, histories.CommitElision()...) {
		fmt.Printf("%s — %s:\n", h.Name, h.Title)
		for _, o := range histories.Replay(core.New(core.Options{}), h) {
			fmt.Println("  " + describe(o))
		}
		fmt.Printf("  %s\n\n", h.Note)
	}
}

func describe(o histories.Outcome) string {
	switch {
	case o.Op == histories.OpRead && o.Early != "":
		return fmt.Sprintf("%s reading %s: EARLY ABORT (%s)", o.Tx, o.Var, o.Early)
	case o.Op == histories.OpRead && o.Stamped:
		return fmt.Sprintf("%s reads %s = %v, raising its read stamp", o.Tx, o.Var, o.Value)
	case o.Op == histories.OpRead:
		return fmt.Sprintf("%s reads %s = %v", o.Tx, o.Var, o.Value)
	case !o.OK:
		return fmt.Sprintf("%s: ABORTED (%v)", o.Tx, o.Reason)
	case o.Nat == 0:
		return fmt.Sprintf("%s: committed (read-only)", o.Tx)
	}
	stamped := ""
	if o.Stamped {
		stamped = ", raising its read stamps"
	}
	if o.TW < o.Nat {
		return fmt.Sprintf("%s: TIME-WARP commit, serialized at TW=%d (natural order N=%d)%s", o.Tx, o.TW, o.Nat, stamped)
	}
	return fmt.Sprintf("%s: committed in the present (N=TW=%d)%s", o.Tx, o.Nat, stamped)
}
