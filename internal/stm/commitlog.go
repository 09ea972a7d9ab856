package stm

import "fmt"

// LSN is a log sequence number: the count of records a CommitLogger has
// accepted so far. LSNs are dense and monotone, so "everything at or below
// lsn is durable" is a single watermark comparison.
type LSN uint64

// LoggedWrite is one variable write inside a logged commit. VarID is the
// engine's stable per-TM variable id (stm.IDedVar); the value must be of a
// loggable type (the wal package's codec accepts nil, bool, int, int64,
// uint64, float64, string and []byte).
type LoggedWrite struct {
	VarID uint64
	Value Value
}

// CommitRecord is the write set of one committed update transaction in the
// engine's serialization order.
//
// Serial is the transaction's serialization key: the time-warp commit order
// (twOrder) for TWM, the write version for JVSTM. Tie is TWM's natural commit
// order and breaks Serial ties the same way the in-memory version chains do:
// when a time-warp clash elides a later natural committer onto an equal
// Serial, the surviving (readable) version is the one with the smallest Tie.
// Replay therefore folds records per variable as "max Serial wins; on equal
// Serial, min Tie wins", which reproduces exactly the chain head a reader at
// the recovered clock would observe. Engines without a natural/warp split
// log Tie == 0.
type CommitRecord struct {
	Serial uint64
	Tie    uint64
	Writes []LoggedWrite
}

// CommitLogger is the durability seam on an engine's commit path. Engines
// that are handed a logger call it in two phases around version install:
//
//   - Append is called with the committing transaction's write locks still
//     held, after validation has succeeded but BEFORE any new version becomes
//     visible to other transactions. The engines pass one record; the WAL
//     encodes any number as one log entry. Because no write is visible
//     before its record is appended, append order respects the reads-from
//     order of the history: a crash can only lose a dependency-closed
//     suffix, so any recovered prefix is serializable. The commit's versions
//     are already installed but still locked, hence invisible. An Append
//     error therefore leaves the commit standing in memory, unlogged; the
//     engine latches and fails every later commit before installing
//     anything (stm.ReasonDurability, a *LogFailedError from the retry
//     loop), so nothing is ever logged after the hole.
//   - Durable is called after the versions are installed and unlocked, with
//     the LSN Append returned. It blocks until that record is durable under
//     the logger's fsync policy (per-commit: an fsync covering the LSN has
//     completed; interval: returns immediately) — only then does the commit
//     report success to its caller, so an acknowledged commit is exactly as
//     durable as the policy promises.
//
// A commit whose Append or Durable fails is never acknowledged: its Commit
// returns false with ReasonOutcomeUnknown, and the retry loop returns
// an *OutcomeUnknownError wrapping the logger's error. The one exception is
// a logger whose policy already acknowledges before the fsync: when it
// reports BoundedLoss() == true, a failed Append is acknowledged like any
// other commit that a crash within the policy's bound may lose.
//
// Implementations must be safe for concurrent use; Append calls of commits
// that share a variable are serialized (the caller holds write locks), but
// Durable is invoked from many goroutines at once. The interface is
// engine-facing commit-path code: a logger method runs exactly once per
// commit, never inside a re-executable body.
type CommitLogger interface {
	Append(recs []CommitRecord) (LSN, error)
	Durable(lsn LSN) error
}

// OutcomeUnknownError is returned by the Atomically family when a commit
// installed its writes in memory but its CommitLogger failed to log them or
// make them durable: the writes are visible and may or may not survive a
// crash. The transaction is not retried, since a re-run would apply it
// twice. Unwrap yields the logger's error.
type OutcomeUnknownError struct {
	Err error
}

// Error implements error.
func (e *OutcomeUnknownError) Error() string {
	return fmt.Sprintf("stm: commit outcome unknown (installed in memory, durability failed): %v", e.Err)
}

// Unwrap exposes the logger's error to errors.Is/As.
func (e *OutcomeUnknownError) Unwrap() error { return e.Err }

// LogFailedError is returned by the Atomically family when the engine's
// CommitLogger has latched a failure, so the commit was refused before
// installing anything (ReasonDurability). Unlike an *OutcomeUnknownError the
// failure is definite: nothing was written. The latch is permanent, so the
// transaction is not retried. Unwrap yields the logger's latched error.
type LogFailedError struct {
	Err error
}

// Error implements error.
func (e *LogFailedError) Error() string {
	return fmt.Sprintf("stm: commit refused, the commit log has failed: %v", e.Err)
}

// Unwrap exposes the logger's error to errors.Is/As.
func (e *LogFailedError) Unwrap() error { return e.Err }

// durabilityErr is the logger's error behind a commit that failed with
// ReasonOutcomeUnknown or ReasonDurability, taken from the descriptor when it
// carries one (the multi-version engines' mvutil.Desc does).
func durabilityErr(tx Tx) error {
	if d, ok := tx.(interface{ DurabilityErr() error }); ok {
		return d.DurabilityErr()
	}
	return nil
}
