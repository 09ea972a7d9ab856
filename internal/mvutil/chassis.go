package mvutil

import (
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
	// GroupCommit routes every update commit through the flat-combining
	// stage (Combiner): one leader runs the commit pipeline over a whole
	// batch of published committers under one clock advance.
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
}

const (
	defaultGCEvery   = 4096
	defaultSpinLimit = 2048
)

// Chassis is everything the multi-version engines have in common besides
// their version chains and their validation rule: the commit clock, the
// active-transaction registry, the GC schedule, the durability seam and the
// commit pipeline (pipeline.go). An engine embeds one Chassis in its TM and
// plugs in its descriptor type (Member) and its chain sweep; the accessors
// below are promoted onto the engine.
type Chassis struct {
	// Opts holds the engine's shared options with the defaults applied.
	Opts Options
	// Clk defines the commit order: one logical clock on its own cache line.
	Clk    Clock
	Active *ActiveSet
	Prof   atomic.Pointer[stm.Profiler]
	// SnapshotStall, when non-nil, runs inside Snapshot between the first clock
	// sample and its publication: the fault point of the tests that park a
	// beginning transaction there while commits and collector passes go by.
	SnapshotStall func()

	gcCount atomic.Uint64
	gcMu    sync.Mutex
	// sweep is the engine's chain pass: it frees, in every variable, the
	// versions older than the newest one visible at bound, and returns how
	// many. It skips variables whose commit lock is busy.
	sweep func(bound uint64) (freed int)

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

// Init applies the option defaults, starts the clock and wires the engine's
// chain sweep. It must run before the engine is shared.
func (c *Chassis) Init(opts Options, sweep func(bound uint64) int) {
	if opts.GCEveryNCommits == 0 {
		opts.GCEveryNCommits = defaultGCEvery
	}
	if opts.LockSpinBudget == 0 {
		opts.LockSpinBudget = defaultSpinLimit
	}
	c.Opts = opts
	c.sweep = sweep
	if opts.GroupCommit {
		c.combiner = NewCombiner(opts.GroupMaxBatch, opts.GroupHooks)
	}
	if e, ok := opts.Logger.(interface{ Err() error }); ok {
		c.logErr = e.Err
	}
	// The clock starts at 1 so a zero read stamp can never satisfy a "stamp >
	// snapshot" check (initial versions carry order 0 and are visible to
	// every snapshot).
	c.Clk.Raise(1)
	c.Active = new(ActiveSet)
}

// SetProfiler implements stm.Profilable.
func (c *Chassis) SetProfiler(p *stm.Profiler) { c.Prof.Store(p) }

// Clock returns the logical clock (the health watchdog's progress measure).
func (c *Chassis) Clock() uint64 { return c.Clk.Load() }

// ActiveSet exposes the active-transaction registry (health watchdog).
func (c *Chassis) ActiveSet() *ActiveSet { return c.Active }

// CommitLogger exposes the configured durability seam; nil when memory-only
// (the health watchdog probes it for the WAL-stall judge).
func (c *Chassis) CommitLogger() stm.CommitLogger { return c.Opts.Logger }

// SeedClock advances the clock to at least v. Recovery calls it, after
// replaying a write-ahead log whose highest serialization key is v and before
// the engine serves transactions, so every post-recovery commit orders
// strictly after everything recovered (recovered values are installed as
// initial versions, visible to every snapshot). Clock values need not be
// dense, only monotone, so a lower v is a no-op.
func (c *Chassis) SeedClock(v uint64) { c.Clk.Raise(v) }

// Snapshot registers d in the active set and samples its snapshot, S(tx),
// which it returns. update marks an update transaction's registration.
//
// The registration is published before the sample the transaction runs at
// (publish-before-sample): a first sample is published, the clock is sampled
// again, and the second sample — the snapshot — is published if it differs.
// What is published is thus at or below the snapshot at every instant, and a
// scan that does not see the registration at all read the cell before the
// publication, hence before the second sample. So a collector pass either
// folds a bound at or below this snapshot or computed its bound before the
// snapshot was taken, and can never trim a version this transaction may
// read; and the read-only scan of Quiet either sees an update transaction or
// knows it samples later (DESIGN.md §12.5).
func (c *Chassis) Snapshot(d *Desc, update bool) uint64 {
	pub := c.Clk.Load()
	if c.SnapshotStall != nil {
		c.SnapshotStall()
	}
	c.Active.Register(&d.Slot, pub, update)
	start := c.Clk.Load()
	if start != pub {
		c.Active.Register(&d.Slot, start, update)
	}
	return start
}

// Quiet reports whether no update transaction that began below start (d's
// snapshot, as Snapshot just returned it) has yet to check read stamps
// (ActiveSet.Settle). TWM's read-only transactions elide their read stamps
// on it; the scan must follow the snapshot sample (sample-before-scan).
func (c *Chassis) Quiet(start uint64) bool { return !c.Active.OlderUpdate(start) }

// GC trims version lists down to the oldest version any active or future
// transaction can observe and returns the number of versions released. The
// bound is the oldest registered start, or the clock when nothing is
// registered.
//
// Passes are serialized, but their bounds are not monotone: Snapshot
// publishes its first clock sample before it re-samples, so a pass that runs
// between that publication and the republication folds the stale, lower
// sample, while an earlier pass that did not yet see the registration may
// have used the later clock. Such a pass walks a chain an earlier pass
// already cut below its own bound; the engines' sweeps stop at the oldest
// retained version instead of running off the tail. No transaction reads
// below the cut: every live snapshot is at or above every bound a pass
// computed while it was live (Snapshot).
//
// What GC retains is bounded (DESIGN.md §2): per variable, at most one
// version at or below the oldest registered start, plus every version
// installed since.
func (c *Chassis) GC() int {
	c.gcMu.Lock()
	defer c.gcMu.Unlock()
	return c.sweep(c.Active.MinStart(c.Clk.Load()))
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
// Durability fail-fast: a logger that latched a failure (its own, or an
// Append this engine saw fail) can never accept another record, so the round
// fails at the door instead of installing versions whose record is known to
// be unwritable — and nothing is ever logged after a hole.
func (c *Chassis) admit() stm.AbortReason {
	if c.logFailed.Load() || (c.logErr != nil && c.logErr() != nil) {
		return stm.ReasonDurability
	}
	return stm.ReasonNone
}
