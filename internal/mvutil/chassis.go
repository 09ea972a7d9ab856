package mvutil

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/stm"
)

// Options are the settings the multi-version engines share (internal/core
// embeds them next to its three TWM-only switches; internal/jvstm uses them
// as is). The zero value selects every default.
type Options struct {
	// GCEveryNCommits triggers a version garbage-collection pass each time
	// this many update transactions have committed. 0 selects the default;
	// negative disables automatic GC (tests use this to inspect chains).
	GCEveryNCommits int
	// LockSpinBudget bounds the spin iterations a transaction waits on a
	// peer's commit lock before self-aborting. 0 selects the default.
	LockSpinBudget int
	// Budget, when non-nil, caps the engine's version memory (VersionBudget,
	// DESIGN.md §11): soft pressure triggers eager GC, hard pressure trims
	// chains to MaxVersionDepth and, as a last resort, fails commits with
	// stm.ReasonMemoryPressure. A budget may be shared between engines.
	Budget *VersionBudget
	// MaxVersionDepth is the per-variable chain depth the hard-pressure trim
	// cuts to. 0 selects the default; only consulted when Budget is set.
	MaxVersionDepth int
	// GroupCommit routes every update commit through the flat-combining
	// stage (Combiner): one leader runs the commit pipeline over a whole
	// batch of published committers under one clock advance per shard run.
	GroupCommit bool
	// GroupMaxBatch caps the members per combiner batch; 0 selects
	// DefaultMaxBatch. Only consulted when GroupCommit is set.
	GroupMaxBatch int
	// GroupHooks injects the combiner's fault points (internal/chaos).
	GroupHooks *BatchHooks
	// Logger, when non-nil, makes every update commit durable through the
	// stm.CommitLogger seam (DESIGN.md §16). It must be set before the engine
	// serves transactions.
	Logger stm.CommitLogger
	// ClockShards partitions the variable space into that many clock domains
	// (rounded up to a power of two, capped at MaxClockShards; 0 and 1 keep
	// the single global clock). See ClockDomain and DESIGN.md §17.
	ClockShards int
	// Sharder overrides the variable→shard assignment (default: round-robin
	// on the variable id). It is consulted once, at NewVar, with the
	// effective shard count; it must be pure and total.
	Sharder func(id uint64, shards int) int
}

const (
	defaultGCEvery   = 4096
	defaultSpinLimit = 2048
	defaultTrimDepth = 8
)

// Chassis is everything the multi-version engines have in common besides
// their version chains and their validation rule: the clock domain, the
// active-transaction registry, the GC schedule, the version budget, the
// durability seam and the commit pipeline (pipeline.go). An engine embeds one
// Chassis in its TM and plugs in its descriptor type (Member) and its chain
// sweep; the accessors below are promoted onto the engine.
type Chassis struct {
	// Opts holds the engine's shared options with the defaults applied.
	Opts Options
	// Clk defines the commit order. At ClockShards=1 it degenerates to one
	// shared logical clock (cell 0) on its own cache line; at K>1 each shard's
	// cell is an independent number line (DESIGN.md §17).
	Clk     ClockDomain
	Sharded bool // ClockShards > 1
	Active  *ActiveSet
	Prof    atomic.Pointer[stm.Profiler]
	// SnapshotStall, when non-nil, runs inside Snapshot between the first clock
	// sample and its publication: the fault point of the tests that park a
	// beginning transaction there while commits and collector passes go by.
	SnapshotStall func()

	gcCount atomic.Uint64
	gcMu    sync.Mutex
	// sweep is the engine's chain pass. With depth == 0 it frees, in every
	// variable of shard s, the versions older than the newest one visible at
	// bounds[s]; with depth > 0 it cuts every chain to depth versions
	// regardless of bounds. It skips variables whose commit lock is busy.
	sweep func(bounds []uint64, depth int) (freed int, bytes int64)

	// logErr probes the logger's latched failure (nil when the logger has
	// none to report); logFailed latches an Append this engine saw fail.
	logErr    func() error
	logFailed atomic.Bool

	// combiner is the flat-combining stage; nil unless Opts.GroupCommit.
	// batch is the leader's round scratch, guarded by the combiner's leader
	// lock (lead only ever runs under it). stripeSeq deals out sticky
	// publication stripes, one per descriptor lifetime.
	combiner  *Combiner
	batch     scratch
	pend      []*Desc
	stripeSeq atomic.Uint32
}

// Init applies the option defaults, sizes the clock domain and wires the
// engine's chain sweep. It must run before the engine is shared.
func (c *Chassis) Init(opts Options, sweep func(bounds []uint64, depth int) (int, int64)) {
	if opts.GCEveryNCommits == 0 {
		opts.GCEveryNCommits = defaultGCEvery
	}
	if opts.LockSpinBudget == 0 {
		opts.LockSpinBudget = defaultSpinLimit
	}
	if opts.MaxVersionDepth <= 0 {
		opts.MaxVersionDepth = defaultTrimDepth
	}
	c.Opts = opts
	c.sweep = sweep
	if opts.GroupCommit {
		c.combiner = NewCombiner(opts.GroupMaxBatch, opts.GroupHooks)
	}
	if e, ok := opts.Logger.(interface{ Err() error }); ok {
		c.logErr = e.Err
	}
	// Every shard's clock starts at 1 so a zero read stamp can never satisfy
	// a "stamp > snapshot" check in any domain (initial versions carry order
	// 0 and are visible to every snapshot).
	c.Sharded = c.Clk.Init(opts.ClockShards, 1) > 1
	c.Active = NewActiveSet(c.Clk.Shards())
}

// SetProfiler implements stm.Profilable.
func (c *Chassis) SetProfiler(p *stm.Profiler) { c.Prof.Store(p) }

// Clock exposes a monotone logical-clock progress measure: the single clock
// value at ClockShards=1 and the sum of the shard cells otherwise (every
// commit strictly increases it, which is all the health watchdog and the
// tests that sample it rely on).
func (c *Chassis) Clock() uint64 { return c.Clk.Sum() }

// ClockShards reports the effective clock-shard count (1 when unsharded).
func (c *Chassis) ClockShards() int { return c.Clk.Shards() }

// ClockVec appends the current per-shard clock vector to dst (one consistent
// cut). Checkpoints use it to stamp snapshots with per-shard serials.
func (c *Chassis) ClockVec(dst []uint64) []uint64 { return c.Clk.Snapshot(dst) }

// ActiveSet exposes the active-transaction registry (health watchdog).
func (c *Chassis) ActiveSet() *ActiveSet { return c.Active }

// Budget exposes the configured version budget; nil when unbounded.
func (c *Chassis) Budget() *VersionBudget { return c.Opts.Budget }

// CommitLogger exposes the configured durability seam; nil when memory-only
// (the health watchdog probes it for the WAL-stall judge).
func (c *Chassis) CommitLogger() stm.CommitLogger { return c.Opts.Logger }

// SeedClock advances every shard's clock to at least v. Recovery calls it,
// after replaying a write-ahead log whose highest serialization key is v and
// before the engine serves transactions, so every post-recovery commit orders
// strictly after everything recovered (recovered values are installed as
// initial versions, visible to every snapshot). Raising every shard to the
// global maximum is always sound — clock values need not be dense, only
// monotone per shard — and stays correct even when the shard count or
// sharder changed across the restart.
func (c *Chassis) SeedClock(v uint64) {
	for s := 0; s < c.Clk.Shards(); s++ {
		c.Clk.Raise(s, v)
	}
}

// SeedClockShard advances one shard's clock to at least v (per-shard recovery
// fast-forward from the WAL's per-shard max-Serial fold). Callers that cannot
// prove the variable→shard assignment is unchanged since the log was written
// must follow with SeedClock of the global maximum.
func (c *Chassis) SeedClockShard(s int, v uint64) {
	if s >= 0 && s < c.Clk.Shards() {
		c.Clk.Raise(s, v)
	}
}

// ShardOf maps a variable id to its clock shard through the configured
// sharder (default: round-robin), clamped into range; 0 when unsharded.
func (c *Chassis) ShardOf(id uint64) uint32 {
	if !c.Sharded {
		return 0
	}
	k := c.Clk.Shards()
	if f := c.Opts.Sharder; f != nil {
		s := f(id, k) % k
		if s < 0 {
			s += k
		}
		return uint32(s)
	}
	return uint32(c.Clk.ShardOf(id))
}

// Snapshot registers d in the active set and samples its snapshot — the
// scalar clock, or at ClockShards>1 one consistent per-shard vector cut into
// d.Vec (see ClockDomain.Snapshot for why the fence seqlock makes the cut
// consistent). It returns S(tx): the clock sample, or the minimum over the
// vector. update marks an update transaction's registration.
//
// The registration is published before the sample the transaction runs at
// (publish-before-sample): a first sample is published, the clock is sampled
// again, and the second sample — the snapshot — is published if it differs.
// What is published is thus at or below the snapshot at every instant, and a
// scan that does not see the registration at all read the cell before the
// publication, hence before the second sample. So a collector pass either
// folds a bound at or below this snapshot or computed all its bounds before
// the snapshot was taken, and can never trim a version this transaction may
// read; and the read-only scan of Quiet either sees an update transaction or
// knows it samples later (DESIGN.md §12.5).
//
// Sharded transactions register the whole vector: the GC folds per-shard
// bounds from it, so shard s's bound tracks the oldest *component s* among
// active snapshots instead of the oldest min-component — one lagging shard
// clock must not freeze collection everywhere else. The scalar min backs the
// quiesce fence and the health watchdog.
func (c *Chassis) Snapshot(d *Desc, update bool) uint64 {
	if !c.Sharded {
		pub := c.Clk.Load(0)
		if c.SnapshotStall != nil {
			c.SnapshotStall()
		}
		c.Active.Register(&d.Slot, pub, update)
		start := c.Clk.Load(0)
		if start != pub {
			c.Active.Register(&d.Slot, start, update)
		}
		return start
	}
	d.Vec = c.Clk.Snapshot(d.Vec)
	if c.SnapshotStall != nil {
		c.SnapshotStall()
	}
	c.Active.RegisterVec(&d.Slot, d.Vec, slices.Min(d.Vec), update)
	d.Vec = c.Clk.Snapshot(d.Vec)
	min := slices.Min(d.Vec)
	c.Active.RegisterVec(&d.Slot, d.Vec, min, update) // stores what moved, if anything
	return min
}

// Quiet reports whether no update transaction that began below d's snapshot
// (start, as Snapshot just returned it) has yet to check read stamps
// (ActiveSet.Settle) — component-wise at ClockShards>1. TWM's read-only
// transactions elide their read stamps on it; the scan must follow the
// snapshot sample (sample-before-scan).
func (c *Chassis) Quiet(d *Desc, start uint64) bool {
	if c.Sharded {
		return !c.Active.OlderUpdateVec(d.Vec)
	}
	return !c.Active.OlderUpdate(start)
}

// GC trims version lists down to the oldest version any active or future
// transaction can observe and returns the number of versions released.
// Passes are serialized so each pass's bound is at least its predecessor's;
// an older bound walking a list truncated by a newer pass would run off the
// tail.
func (c *Chassis) GC() int {
	c.gcMu.Lock()
	defer c.gcMu.Unlock()
	return c.gcLocked()
}

// gcLocked is the collection pass; the caller holds gcMu. The bound is
// computed per shard: active transactions register their snapshot vectors,
// so shard s's bound is the oldest component s among live snapshots, capped
// by shard s's own clock — exact per domain. Folding the scalar min instead
// would couple every shard's bound to the slowest shard's clock and, under
// skewed progress, freeze collection on the busy shards.
func (c *Chassis) gcLocked() int {
	var bounds [MaxClockShards]uint64
	k := c.Clk.Shards()
	for s := 0; s < k; s++ {
		bounds[s] = c.Clk.Load(s)
	}
	c.Active.MinStarts(bounds[:k])
	return c.release(c.sweep(bounds[:k], 0))
}

// release returns what a sweep freed to the version budget.
func (c *Chassis) release(freed int, bytes int64) int {
	if b := c.Opts.Budget; b != nil && freed > 0 {
		b.Release(int64(freed), bytes)
	}
	return freed
}

// gcTick advances the commit counter by k and runs a collection pass if the
// count crossed a multiple of Opts.GCEveryNCommits anywhere inside the jump.
func (c *Chassis) gcTick(k int) {
	every := c.Opts.GCEveryNCommits
	if every < 0 || k == 0 {
		return
	}
	if c.gcCount.Add(uint64(k))%uint64(every) < uint64(k) {
		c.GC()
	}
}

// admit is the pipeline's first stage: it decides, before any commit lock is
// taken or clock ticked, whether a round may install at all.
//
// Version-memory backpressure escalates until pressure relents: soft
// pressure triggers an eager GC pass (non-blocking — when another pass is
// already running it frees versions on our behalf), hard pressure runs a
// blocking pass, then trims every chain to MaxVersionDepth — the one pass
// that may free versions an active snapshot still needs; the affected
// transactions restart with stm.ReasonMemoryPressure (DESIGN.md §11) — and
// when even trimming leaves the budget above its hard limit the round is
// refused.
//
// Durability fail-fast: a logger that latched a failure (its own, or an
// Append this engine saw fail) can never accept another record, so the round
// fails at the door instead of installing versions whose record is known to
// be unwritable — and nothing is ever logged after a hole.
func (c *Chassis) admit() stm.AbortReason {
	if b := c.Opts.Budget; b != nil {
		switch b.Level() {
		case PressureSoft:
			if c.gcMu.TryLock() {
				c.gcLocked()
				c.gcMu.Unlock()
				b.NoteSoftGC()
			}
		case PressureHard:
			// One blocking pass at a time serves every committer that hit
			// the limit together (they re-check the level under the lock, so
			// the losers of the lock race usually find it already relieved).
			c.gcMu.Lock()
			if b.Level() == PressureHard {
				c.gcLocked()
				b.NoteSoftGC()
			}
			if b.Level() == PressureHard {
				c.release(c.sweep(nil, c.Opts.MaxVersionDepth))
				b.NoteTrim()
			}
			level := b.Level()
			c.gcMu.Unlock()
			if level == PressureHard {
				b.NoteReject()
				return stm.ReasonMemoryPressure
			}
		}
	}
	if c.logFailed.Load() || (c.logErr != nil && c.logErr() != nil) {
		return stm.ReasonDurability
	}
	return stm.ReasonNone
}
