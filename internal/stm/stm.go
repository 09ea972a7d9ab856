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
	// Commit attempts to commit tx. It returns false if the transaction
	// failed validation and must be re-executed; the engine has already
	// cleaned up. On true the transaction's writes are durable and visible
	// per the engine's visibility rules.
	Commit(tx Tx) bool
	// Abort abandons tx, releasing any engine resources (locks, visible-read
	// registrations). It is called on user aborts and after retry signals.
	Abort(tx Tx)
	// Stats returns the engine's live counters.
	Stats() *Stats
}

// Profilable is implemented by engines that support the per-phase time
// breakdown of Fig. 4(c). Passing nil disables profiling (the default).
type Profilable interface {
	SetProfiler(p *Profiler)
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
// default; EnableHistory must be called before any transaction runs.
type HistoryRecording interface {
	EnableHistory()
	// History returns the committed versions of v (excluding the initial
	// value) in serialization order, oldest first.
	History(v Var) []VersionRecord
}
