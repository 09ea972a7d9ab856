package stm

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
	// Shards is the commit's clock-shard vector: the sorted set of clock
	// shards the write set touched, as assigned by the engine's sharder.
	// Serial is drawn from (and comparable within) exactly these shards'
	// number lines — a cross-shard commit raises every listed shard's clock
	// to Serial before the record is appended, so recovery's per-shard
	// max-Serial fold stays correct. Nil/empty means the engine ran unsharded
	// (ClockShards == 1, shard 0 implied); the WAL encodes that case
	// byte-identically to the pre-sharding format.
	Shards []uint32
}

// CommitLogger is the durability seam on an engine's commit path. Engines
// that are handed a logger call it in two phases around version install:
//
//   - Append is called with the committing transactions' write locks still
//     held, after validation has succeeded but BEFORE any new version becomes
//     visible to other transactions. The slice holds the write sets committing
//     under one clock advance — one element on the serial path, the whole
//     batch (in natural-commit order) from a group-commit leader. Because no
//     write is visible before its record is appended, append order respects
//     the reads-from order of the history: a crash can only lose a
//     dependency-closed suffix, so any recovered prefix is serializable.
//     The round's versions are already installed (later members of a batch
//     validate against earlier members' versions) but still locked, hence
//     invisible. An Append error therefore leaves the round standing in
//     memory, unlogged; the engine latches and fails every later commit
//     before installing anything (stm.ReasonDurability), so nothing is ever
//     logged after the hole. Callers that promise zero loss gate their
//     acknowledgements on the logger's own latched error.
//   - Durable is called after the versions are installed and unlocked, with
//     the LSN Append returned. It blocks until that record is durable under
//     the logger's fsync policy (per-commit: an fsync covering the LSN has
//     completed; interval: returns immediately) — only then does the commit
//     report success to its caller, so an acknowledged commit is exactly as
//     durable as the policy promises.
//
// Implementations must be safe for concurrent use; Append calls themselves
// are naturally serialized per clock domain (the caller holds write locks),
// but Durable is invoked from many goroutines at once. The interface is
// engine-facing commit-path code: a logger method runs exactly once per
// commit, never inside a re-executable body.
type CommitLogger interface {
	Append(recs []CommitRecord) (LSN, error)
	Durable(lsn LSN) error
}
