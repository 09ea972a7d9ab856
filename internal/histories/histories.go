// Package histories scripts the example executions of the paper — the Fig. 1
// linked-list history of §1.1 and the abstract histories of Fig. 2 — as
// barrier-level steps, so that examples/histories can narrate them and
// differential tests can replay the same schedule through several engines
// and compare what each decided.
package histories

import (
	"fmt"

	"repro/internal/stm"
)

// Op is the kind of one scripted step.
type Op uint8

const (
	OpBegin   Op = iota // begin an update transaction
	OpBeginRO           // begin a read-only transaction
	OpRead
	OpWrite
	OpCommit
)

// Step is one barrier-level action of transaction Tx.
type Step struct {
	Tx  string
	Op  Op
	Var string
	Val stm.Value
}

// History is a named single-threaded schedule over a few variables.
type History struct {
	Name  string
	Title string
	Vars  []string    // variable names, in creation order
	Init  []stm.Value // initial values, parallel to Vars
	Steps []Step
	Note  string // what the paper says the outcome shows
}

// Outcome is what an engine did at one step.
type Outcome struct {
	Step
	// Value is what a Read returned (nil when it early-aborted).
	Value stm.Value
	// Stamped reports that a Read or a Commit raised a semi-visible read
	// stamp, on engines that expose them (ReadStamp).
	Stamped bool
	// Early is the reason a Read early-aborted for, "" when it returned
	// normally; the replay aborts the transaction and skips its remaining
	// steps.
	Early string
	// OK is Commit's verdict; Reason is why it failed, as the descriptor
	// remembers it (Tx.LastAbortReason).
	OK     bool
	Reason stm.AbortReason
	// Nat and TW are the natural and time-warp commit orders of a committed
	// update transaction on engines that expose them (both 0 otherwise).
	Nat, TW uint64
}

// String renders the outcome as one stable transcript line.
func (o Outcome) String() string {
	switch o.Op {
	case OpRead:
		if o.Early != "" {
			return fmt.Sprintf("%s read %s: early abort (%s)", o.Tx, o.Var, o.Early)
		}
		return fmt.Sprintf("%s read %s = %v", o.Tx, o.Var, o.Value)
	case OpCommit:
		if !o.OK {
			return fmt.Sprintf("%s commit: aborted (%v)", o.Tx, o.Reason)
		}
		return fmt.Sprintf("%s commit: ok nat=%d tw=%d", o.Tx, o.Nat, o.TW)
	}
	return ""
}

// Replay runs h against a fresh tm step by step and reports the outcome of
// every Read and Commit, in order.
func Replay(tm stm.TM, h History) []Outcome {
	vars := make(map[string]stm.Var, len(h.Vars))
	for i, name := range h.Vars {
		vars[name] = tm.NewVar(h.Init[i])
	}
	orders, _ := tm.(interface {
		CommitOrders(stm.Tx) (nat, tw uint64)
	})
	stamps, _ := tm.(interface{ ReadStamp(stm.Var) uint64 })
	// stampTotal sums the read stamps: they only rise, so a step raised one
	// iff the total rose.
	stampTotal := func() (sum uint64) {
		if stamps != nil {
			for _, v := range vars {
				sum += stamps.ReadStamp(v)
			}
		}
		return sum
	}
	txs := make(map[string]stm.Tx)
	var out []Outcome
	for _, s := range h.Steps {
		if s.Op == OpBegin || s.Op == OpBeginRO {
			txs[s.Tx] = tm.Begin(s.Op == OpBeginRO)
			continue
		}
		tx, live := txs[s.Tx]
		if !live {
			continue // early-aborted
		}
		if s.Op == OpWrite {
			tx.Write(vars[s.Var], s.Val)
			continue
		}
		o := Outcome{Step: s}
		stamp := stampTotal()
		switch s.Op {
		case OpRead:
			// Engines count an early abort under its reason at the abort
			// site, before raising the (opaque) retry signal.
			before := tm.Stats().Snapshot().ByReason
			func() {
				defer func() {
					if recover() == nil {
						return
					}
					o.Early = "unknown"
					for reason, n := range tm.Stats().Snapshot().ByReason {
						if n > before[reason] {
							o.Early = reason
						}
					}
					tm.Abort(tx)
					delete(txs, s.Tx)
				}()
				o.Value = tx.Read(vars[s.Var])
			}()
		case OpCommit:
			o.OK = tm.Commit(tx)
			if !o.OK {
				o.Reason = tx.LastAbortReason()
			}
			if o.OK && orders != nil {
				o.Nat, o.TW = orders.CommitOrders(tx)
			}
		}
		o.Stamped = stampTotal() != stamp
		out = append(out, o)
	}
	return out
}

func begin(tx string) Step             { return Step{Tx: tx, Op: OpBegin} }
func beginRO(tx string) Step           { return Step{Tx: tx, Op: OpBeginRO} }
func read(tx, v string) Step           { return Step{Tx: tx, Op: OpRead, Var: v} }
func commit(tx string) Step            { return Step{Tx: tx, Op: OpCommit} }
func write(tx, v string, val any) Step { return Step{Tx: tx, Op: OpWrite, Var: v, Val: val} }

func zeros(n int) []stm.Value {
	out := make([]stm.Value, n)
	for i := range out {
		out[i] = 0
	}
	return out
}

// ReadOnlyElision returns the Fig. 2(b) triad with its read-only transaction
// on either side of the pivot's begin: the two cases of the stamp-elision rule
// (DESIGN.md §12.5). A read-only transaction stamps its reads only when an
// update transaction that began below its snapshot is still in flight.
func ReadOnlyElision() []History {
	return []History{{
		// C begins after the pivot B began and after A's commit ticked the
		// clock: B could still time-warp into C's snapshot, so C's reads are
		// semi-visible and B fails Rule 2 exactly as in the paper.
		Name:  "read-only after the pivot",
		Title: "triad: C (read-only) begins after B began and A committed",
		Vars:  []string{"x", "y"},
		Init:  zeros(2),
		Steps: []Step{
			begin("B"), read("B", "y"), write("B", "x", 1),
			begin("A"), write("A", "y", 1), commit("A"),
			beginRO("C"), read("C", "x"), read("C", "y"), commit("C"),
			commit("B"),
		},
		Note: "C is not quiet: its read of x raises the stamp and the pivot aborts (triad)",
	}, {
		// C begins first. No update transaction is older, so none can warp to
		// or below C's snapshot: C reads without stamping, B is free to warp
		// before A, and C — which saw neither — serializes before both.
		Name:  "read-only before the pivot",
		Title: "the same transactions; C (read-only) begins before B",
		Vars:  []string{"x", "y"},
		Init:  zeros(2),
		Steps: []Step{
			beginRO("C"),
			begin("B"), read("B", "y"), write("B", "x", 1),
			read("C", "x"),
			begin("A"), write("A", "y", 1), commit("A"),
			read("C", "y"),
			commit("B"),
			commit("C"),
		},
		Note: "C is quiet: the stamp of x stays put, B time-warps before A, serial order C -> B -> A",
	}}
}

// CommitElision returns the two cases of the commit-time stamp-elision rule
// (DESIGN.md §12.5): an update transaction C that reads x raises x's stamp at
// commit only when an update transaction that began below its natural order
// has yet to check its targets' stamps.
func CommitElision() []History {
	return []History{{
		// C begins after the pivot B began and after A committed, reads x
		// (which B overwrites) and y (which A wrote), and commits while B is
		// in flight: C's stamp on x is what makes B a target, and the cycle
		// C -> B -> A -> C is closed only if B commits.
		Name:  "update reader while the pivot is in flight",
		Title: "triad: C (update) reads x and y and commits before the pivot B",
		Vars:  []string{"x", "y", "z"},
		Init:  zeros(3),
		Steps: []Step{
			begin("B"), read("B", "y"), write("B", "x", 1),
			begin("A"), write("A", "y", 1), commit("A"),
			begin("C"), read("C", "x"), read("C", "y"), write("C", "z", 1), commit("C"),
			commit("B"),
		},
		Note: "C stamps at commit: B is older and unsettled, sees the stamp on x and aborts (triad)",
	}, {
		// C commits first, alone. Every update transaction to come begins at
		// or above C's natural order, where C's stamp could flag none of
		// them, so C raises no stamp and B warps before A as it would if C
		// had stamped.
		Name:  "update reader before the pivot",
		Title: "the same transactions; B begins after C committed",
		Vars:  []string{"x", "y", "z"},
		Init:  zeros(3),
		Steps: []Step{
			begin("C"), read("C", "x"), read("C", "y"), write("C", "z", 1), commit("C"),
			begin("B"), read("B", "y"), write("B", "x", 1),
			begin("A"), write("A", "y", 1), commit("A"),
			commit("B"),
		},
		Note: "C elides its stamps: no older update transaction is in flight; B time-warps before A, serial order C -> B -> A",
	}}
}

// Paper returns the scripted histories of Figs. 1 and 2.
func Paper() []History {
	return []History{{
		// T1 (read-only lookup), T2 inserts B near the head, T3 removes E
		// near the tail. Classic validation aborts T3; TWM serializes it
		// before T2.
		Name:  "Fig. 1",
		Title: "linked list [A D E]; T1 looks up D, T2 inserts B, T3 removes E",
		Vars:  []string{"A.next", "D.next"},
		Init:  []stm.Value{"D", "E"},
		Steps: []Step{
			beginRO("T1"), read("T1", "A.next"), commit("T1"),
			begin("T3"), read("T3", "A.next"), read("T3", "D.next"), write("T3", "D.next", "nil"),
			begin("T2"), read("T2", "A.next"), write("T2", "A.next", "B"), commit("T2"),
			commit("T3"),
		},
		Note: "TWM: equivalent serial history T1 -> T3 -> T2",
	}, {
		// B misses the writes of two concurrent committers and time-warp
		// commits before both (Rule 1: TW(B) = N(A1)).
		Name:  "Fig. 2(a)",
		Title: "B reads y,z and writes x; A1 overwrites y, A2 overwrites z",
		Vars:  []string{"x", "y", "z"},
		Init:  zeros(3),
		Steps: []Step{
			begin("B"), read("B", "y"), read("B", "z"), write("B", "x", 1),
			begin("A1"), write("A1", "y", 1), commit("A1"),
			begin("A2"), write("A2", "z", 1), commit("A2"),
			commit("B"),
		},
		Note: "TWM: Rule 1 serializes B before the earliest writer it missed",
	}, {
		// The triad. The read-only C makes its read of x semi-visible, so
		// the pivot B (which also missed A's write) fails Rule 2.
		Name:  "Fig. 2(b)",
		Title: "triad: C (read-only) reads x; B writes x and missed A's write to y",
		Vars:  []string{"x", "y", "z"},
		Init:  zeros(3),
		Steps: []Step{
			begin("B"), read("B", "y"), write("B", "x", 1),
			begin("A"), write("A", "y", 1), commit("A"),
			beginRO("C"), read("C", "x"), read("C", "z"), commit("C"),
			commit("B"),
		},
		Note: "TWM: B raised both source and target flags -> Rule 2 abort",
	}, {
		// Visibility of a time-warped version. A read-only transaction whose
		// snapshot covers TW(B) observes B's write (Fig. 2(c)); an update
		// transaction in the same position must not, and early-aborts when
		// it would skip the time-warped version (Fig. 2(d)).
		Name:  "Fig. 2(c)/(d)",
		Title: "observing a time-warp committed version",
		Vars:  []string{"x", "y"},
		Init:  zeros(2),
		Steps: []Step{
			begin("B"), read("B", "y"), write("B", "x", 7),
			begin("A"), write("A", "y", 1), commit("A"),
			beginRO("RO"), begin("UP"), // both snapshots after N(A)
			commit("B"),
			read("RO", "x"), commit("RO"),
			read("UP", "x"),
		},
		Note: "TWM: the read-only snapshot includes the time-warped version; the update transaction early-aborts (Rule 2)",
	}, {
		// Fig. 2(d) with the read before the warp: UP reads x while B is
		// still in flight, so the read barrier has nothing to skip. B then
		// time-warps below UP's snapshot, and UP — which also writes — finds
		// the time-warped version when its commit validates the read set.
		Name:  "Fig. 2(d) at commit",
		Title: "an update transaction reads x before B time-warps its write to x",
		Vars:  []string{"x", "y", "z"},
		Init:  zeros(3),
		Steps: []Step{
			begin("B"), read("B", "y"), write("B", "x", 7),
			begin("A"), write("A", "y", 1), commit("A"),
			begin("UP"), read("UP", "x"), write("UP", "z", 1),
			commit("B"),
			commit("UP"),
		},
		Note: "TWM: the update transaction aborts at commit (Rule 2): it missed a time-warp committed version",
	}}
}
