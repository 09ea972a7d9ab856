package stm

import "sync/atomic"

// Stats holds an engine's live transaction counters. The abort-rate metric
// matches the paper (§5): restarts divided by executions, where executions
// count both committed and restarted attempts.
//
// The counters are striped across cache-line-padded shards so that Begin and
// Commit on different cores do not serialize on one contended cache line (a
// single shared atomic counter is a global synchronization point that grows
// linearly with core count — exactly the fixed cost the paper's "lightweight"
// argument says a TM must not pay). Long-lived recorders — pooled transaction
// descriptors — each hold a *StatShard obtained once from Shard() and record
// through it; Snapshot aggregates the shards. The Record* methods on Stats
// itself remain for one-off callers and route to shard 0.
//
// The engines embed Stats at whatever offset their other fields leave. The
// leading pad keeps shard 0's counters out of the 128-byte unit of the field
// before it (the engines read theirs on every barrier), and each shard's
// trailing pad does the same for the next shard and for the field after.
//
// Stats also carries the engine's Fig. 4(c) phase profiler: Stats is the one
// accessor every engine and every wrapper forwards, so a profiler attached
// through the outermost Stats() reaches the engine underneath.
type Stats struct {
	_      [128]byte
	shards [statShards]StatShard
	next   atomic.Uint32 // round-robin shard assignment (cold path only)
	// prof is loaded by every barrier; it lies past every shard's 128-byte
	// units, so no counter store invalidates its line.
	prof atomic.Pointer[Profiler]
}

// SetProfiler attaches p as the engine's phase profiler. nil detaches it (the
// default), and the engines then skip the phase timers entirely.
func (s *Stats) SetProfiler(p *Profiler) { s.prof.Store(p) }

// Profiler returns the attached phase profiler, or nil.
func (s *Stats) Profiler() *Profiler { return s.prof.Load() }

// statShards is the stripe count. Sixteen shards suffice to separate the
// commit-rate of any realistic core count in this repository's benchmarks;
// must be a power of two.
const statShards = 16

// StatShard is one stripe of counters. It is padded so two shards never share
// a cache line (destructive interference granularity is 128 bytes on the
// x86-64 targets we care about: 2 lines, spatial prefetcher): to whole
// 128-byte units, with at least one unit of slack after the counters, so the
// separation holds at any alignment of Stats.
type StatShard struct {
	starts    atomic.Uint64
	commits   atomic.Uint64
	roCommits atomic.Uint64
	aborts    atomic.Uint64
	byReason  [numAbortReasons]atomic.Uint64

	// Read-path contention counter (semi-visible reads, DESIGN.md §12):
	// stampRetries counts failed CAS attempts while raising a read stamp — a
	// retry means another reader raced the same stamp word.
	stampRetries atomic.Uint64

	// Stamp-elision counters (DESIGN.md §12.5): quietRO counts the read-only
	// commits that ran without stamping (roCommits minus it ran the stamping
	// barrier), reRoots the sole surviving versions the collector moved back
	// into their variable.
	quietRO atomic.Uint64
	reRoots atomic.Uint64

	// 7 is the number of scalar counters above; TestStatShardPadded checks it.
	_ [128 + (128-(7+int(numAbortReasons))*8%128)%128]byte
}

// Shard hands out a stripe for a long-lived recorder (one pooled transaction
// descriptor). The round-robin assignment costs one atomic add, paid once per
// descriptor lifetime — not per transaction.
func (s *Stats) Shard() *StatShard {
	return &s.shards[s.next.Add(1)&(statShards-1)]
}

// RecordStart notes one transaction attempt.
func (s *StatShard) RecordStart() { s.starts.Add(1) }

// RecordCommit notes a successful commit; readOnly commits are also tracked
// separately so benchmarks can verify mv-permissiveness claims.
func (s *StatShard) RecordCommit(readOnly bool) {
	s.commits.Add(1)
	if readOnly {
		s.roCommits.Add(1)
	}
}

// RecordAbort notes one restart with its cause.
func (s *StatShard) RecordAbort(reason AbortReason) {
	s.aborts.Add(1)
	s.byReason[reason].Add(1)
}

// RecordQuietRO notes that a read-only commit (recorded separately through
// RecordCommit) ran with its read stamps elided.
func (s *StatShard) RecordQuietRO() { s.quietRO.Add(1) }

// RecordStampRetries notes n failed CAS attempts while raising a semi-visible
// read stamp. n == 0 is the common case and records nothing.
func (s *StatShard) RecordStampRetries(n uint64) {
	if n > 0 {
		s.stampRetries.Add(n)
	}
}

// RecordStart notes one transaction attempt (shard 0; use Shard() on hot
// paths).
func (s *Stats) RecordStart() { s.shards[0].RecordStart() }

// RecordCommit notes a successful commit (shard 0; use Shard() on hot paths).
func (s *Stats) RecordCommit(readOnly bool) { s.shards[0].RecordCommit(readOnly) }

// RecordAbort notes one restart with its cause (shard 0; use Shard() on hot
// paths).
func (s *Stats) RecordAbort(reason AbortReason) { s.shards[0].RecordAbort(reason) }

// RecordReRoots notes n versions a collector pass moved back into their
// variable (shard 0: passes are serialized).
func (s *Stats) RecordReRoots(n uint64) {
	if n > 0 {
		s.shards[0].reRoots.Add(n)
	}
}

// Totals sums the shards without allocating (Snapshot builds a map). The
// health watchdog samples through it on its steady-state path, which is
// pinned at 0 allocs/op.
func (s *Stats) Totals() (starts, commits, roCommits, aborts uint64) {
	for i := range s.shards {
		sh := &s.shards[i]
		starts += sh.starts.Load()
		commits += sh.commits.Load()
		roCommits += sh.roCommits.Load()
		aborts += sh.aborts.Load()
	}
	return
}

// Snapshot is a consistent-enough copy of the counters for reporting.
type Snapshot struct {
	Starts    uint64
	Commits   uint64
	ROCommits uint64
	Aborts    uint64
	ByReason  map[string]uint64
	// StampCASRetries counts failed CAS attempts while raising semi-visible
	// read stamps; zero on engines without semi-visible reads.
	StampCASRetries uint64
	// GroupBatches, GroupBatchTxs, BatchSpills and CombinerHandoffs are
	// always zero: group commit is deleted (DESIGN.md §13), and the members
	// stay only because the benchmark module still reads them.
	GroupBatches     uint64
	GroupBatchTxs    uint64
	BatchSpills      uint64
	CombinerHandoffs uint64
	// Stamp elision (TWM only): QuietROCommits of the ROCommits ran without
	// stamping their reads — the rest ran the stamping barrier — and
	// ReRootedVersions counts sole surviving versions the collector copied
	// back into their variable.
	QuietROCommits   uint64
	ReRootedVersions uint64
}

// QuietROShare returns the share of read-only commits that elided their read
// stamps, or 0 when none committed.
func (sn Snapshot) QuietROShare() float64 {
	if sn.ROCommits == 0 {
		return 0
	}
	return float64(sn.QuietROCommits) / float64(sn.ROCommits)
}

// MeanBatchSize returns GroupBatchTxs/GroupBatches, or 0 when GroupBatches
// is zero — which it always is (see GroupBatches).
func (sn Snapshot) MeanBatchSize() float64 {
	if sn.GroupBatches == 0 {
		return 0
	}
	return float64(sn.GroupBatchTxs) / float64(sn.GroupBatches)
}

// Snapshot sums the shards into one copy of the counter values.
func (s *Stats) Snapshot() Snapshot {
	snap := Snapshot{ByReason: make(map[string]uint64)}
	var byReason [numAbortReasons]uint64
	for i := range s.shards {
		sh := &s.shards[i]
		snap.Starts += sh.starts.Load()
		snap.Commits += sh.commits.Load()
		snap.ROCommits += sh.roCommits.Load()
		snap.Aborts += sh.aborts.Load()
		snap.StampCASRetries += sh.stampRetries.Load()
		snap.QuietROCommits += sh.quietRO.Load()
		snap.ReRootedVersions += sh.reRoots.Load()
		for r := range sh.byReason {
			byReason[r] += sh.byReason[r].Load()
		}
	}
	for r := AbortReason(0); r < numAbortReasons; r++ {
		if n := byReason[r]; n > 0 {
			snap.ByReason[r.String()] = n
		}
	}
	return snap
}

// Reset zeroes every counter in every shard.
func (s *Stats) Reset() {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.starts.Store(0)
		sh.commits.Store(0)
		sh.roCommits.Store(0)
		sh.aborts.Store(0)
		sh.stampRetries.Store(0)
		sh.quietRO.Store(0)
		sh.reRoots.Store(0)
		for r := range sh.byReason {
			sh.byReason[r].Store(0)
		}
	}
}

// AbortRate returns aborts/(commits+aborts) as in the paper's §5 metric, or 0
// when no transaction ran.
func (sn Snapshot) AbortRate() float64 {
	total := sn.Commits + sn.Aborts
	if total == 0 {
		return 0
	}
	return float64(sn.Aborts) / float64(total)
}
