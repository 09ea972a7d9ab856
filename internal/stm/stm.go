// Package stm defines the common object-based transactional memory API shared
// by every engine in this repository: the Time-Warp Multi-version algorithm
// (internal/core) and the four baselines it is evaluated against (internal/tl2,
// internal/norec, internal/jvstm, internal/avstm).
//
// The design follows the evaluation methodology of Diegues and Romano,
// "Time-Warp: Lightweight Abort Minimization in Transactional Memory"
// (PPoPP 2014): all engines are driven through one manually-instrumented
// interface built around transactional variables, the analogue of the
// VBox-style interface the paper uses to compare STMs fairly. Benchmarks and
// transactional data structures are written once against TM/Tx and run
// unmodified on every engine.
//
// A transaction body runs inside Atomically, reads shared state only through
// Tx.Read and writes it only through Tx.Write. Engines request a restart by
// panicking with an internal retry signal (via Retry); Atomically recovers it,
// runs the engine's abort cleanup and re-executes the body, applying
// randomized exponential backoff under contention.
package stm

import (
	"cmp"
	"slices"
	"sync"
)

// Value is the type of the contents of a transactional variable. Engines store
// and return values opaquely; data structures layered on top perform the type
// assertions (or use the typed TVar wrapper).
type Value = any

// Var is an opaque handle to a transactional variable. Handles are created by
// a specific TM's NewVar and must only be passed back to transactions of that
// same TM; engines type-assert to their concrete variable representation.
type Var any

// Tx is a transaction in progress. A Tx must only be used by the goroutine
// that began it, and only between Begin and the matching Commit/Abort.
type Tx interface {
	// Read returns the value of v visible to this transaction. It may abort
	// the transaction by panicking with a retry signal (early abort); callers
	// inside Atomically need no special handling.
	Read(v Var) Value
	// Write buffers a new value for v. All engines in this repository use
	// lazy (commit-time) version installation, as the paper prescribes for
	// TWM ("write operations are privately buffered").
	Write(v Var, val Value)
	// ReadOnly reports whether the transaction was started as read-only.
	// Read-only transactions must not call Write.
	ReadOnly() bool
	AbortReasoner
}

// TM is a transactional memory engine.
type TM interface {
	// Name identifies the engine ("twm", "tl2", "norec", "jvstm", "avstm").
	Name() string
	// NewVar allocates a transactional variable holding initial. Allocation
	// is not transactional; publish the handle before sharing it.
	NewVar(initial Value) Var
	// Begin starts a transaction. The paper's model statically identifies
	// read-only transactions; readOnly passes that knowledge to the engine
	// (read-only transactions skip read-set maintenance and validation where
	// the engine allows it).
	Begin(readOnly bool) Tx
	// Commit attempts to commit tx. On true the transaction's writes are
	// visible per the engine's visibility rules and as durable as the
	// engine's CommitLogger promises. On false the engine has already
	// cleaned up and tx.LastAbortReason says why: for every reason but
	// ReasonOutcomeUnknown nothing was installed and the transaction must
	// be re-executed; ReasonOutcomeUnknown means the writes are installed
	// and visible but their durability failed, and the transaction must not
	// be re-executed (see CommitLogger).
	Commit(tx Tx) bool
	// Abort abandons tx, releasing any engine resources (locks, visible-read
	// registrations). It is called on user aborts and after retry signals.
	Abort(tx Tx)
	// Stats returns the engine's live counters, and carries the Fig. 4(c)
	// phase profiler (Stats.SetProfiler).
	Stats() *Stats
	TxRecycler
}

// VersionRecord describes one committed version of a variable, for the DSG
// serializability oracle (internal/dsg). Records are reported in the engine's
// serialization order for that variable, oldest first.
type VersionRecord struct {
	Value Value
	// Serial is the engine's primary serialization key for the version
	// (twOrder for TWM, commit timestamp for the classic engines, the chosen
	// serialization point for AVSTM).
	Serial uint64
	// Tie breaks Serial ties (TWM time-warp clashes serialize in inverse
	// natural-commit order, so Tie carries natOrder and sorts descending).
	Tie uint64
	// Elided marks a write that was committed but never readable (a TWM
	// time-warp clash victim, paper line 31-32).
	Elided bool
}

// HistoryRecording is implemented by engines that can record per-variable
// version histories for the serializability oracle. Recording is off by
// default. EnableHistory must be called before any variable is created: a
// variable records only if recording was on when NewVar made it.
type HistoryRecording interface {
	EnableHistory()
	// History returns the committed versions of v (excluding the initial
	// value) in serialization order, oldest first.
	History(v Var) []VersionRecord
}

// VersionLog is one variable's record of committed versions, behind every
// engine's HistoryRecording. An engine gives each variable one at NewVar
// while recording is on and appends on every install; a nil log records
// nothing, so the commit path appends unconditionally.
type VersionLog struct {
	mu      sync.Mutex
	records []VersionRecord
}

// Append records r. It is safe for concurrent use and a no-op on a nil log.
func (l *VersionLog) Append(r VersionRecord) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.records = append(l.records, r)
	l.mu.Unlock()
}

// Records returns a copy of the recorded versions in serialization order:
// ascending Serial, ties in descending Tie (TWM's time-warp clashes
// serialize in inverse natural order), equal keys in append order. A nil log
// returns nil.
func (l *VersionLog) Records() []VersionRecord {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	out := slices.Clone(l.records)
	l.mu.Unlock()
	slices.SortStableFunc(out, func(a, b VersionRecord) int {
		if c := cmp.Compare(a.Serial, b.Serial); c != 0 {
			return c
		}
		return cmp.Compare(b.Tie, a.Tie)
	})
	return out
}
