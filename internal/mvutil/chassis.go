package mvutil

import (
	"sync"
	"sync/atomic"

	"repro/internal/stm"
)

// Options are the settings the multi-version engines share (internal/core
// embeds them next to its one TWM-only switch; internal/jvstm uses them as
// is). The zero value selects every default.
type Options struct {
	// GCEveryNCommits triggers a version garbage-collection pass each time
	// this many update transactions have committed. 0 selects the default;
	// negative disables automatic GC (tests use this to inspect chains).
	GCEveryNCommits int
	// LockSpinBudget bounds the spin iterations a transaction waits on a
	// peer's commit lock before self-aborting. 0 selects the default.
	LockSpinBudget int
	// Logger, when non-nil, makes every update commit durable through the
	// stm.CommitLogger seam (DESIGN.md §16). It must be set before the engine
	// serves transactions.
	Logger stm.CommitLogger
}

const (
	defaultGCEvery   = 256
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
	// SnapshotStall, when non-nil, runs inside Snapshot between the first clock
	// sample and its publication: the fault point of the tests that park a
	// beginning transaction there while commits and collector passes go by.
	SnapshotStall func()

	// stats is the engine's counters; the pipeline reads the phase profiler
	// from it and deals descriptors their shards.
	stats *stm.Stats

	gcCount atomic.Uint64
	gcMu    sync.Mutex
	// sweep is the engine's chain pass: it drains the engine's Dirty queue,
	// freeing in each variable the versions older than the newest one
	// visible at bound, and returns how many.
	sweep func(bound uint64) (freed int)
	// varIDs deals variable ids (NewVarID).
	varIDs atomic.Uint64

	// logErr probes the logger's latched failure (nil when the logger has
	// none to report); logFailed latches an Append this engine saw fail;
	// boundedLoss is the logger's BoundedLoss (stm.CommitLogger).
	logErr      func() error
	logFailed   atomic.Bool
	boundedLoss bool
}

// Init applies the option defaults, starts the clock and wires the engine's
// counters and chain sweep. It must run before the engine is shared.
func (c *Chassis) Init(opts Options, stats *stm.Stats, sweep func(bound uint64) int) {
	if opts.GCEveryNCommits == 0 {
		opts.GCEveryNCommits = defaultGCEvery
	}
	if opts.LockSpinBudget == 0 {
		opts.LockSpinBudget = defaultSpinLimit
	}
	c.Opts = opts
	c.stats = stats
	c.sweep = sweep
	if e, ok := opts.Logger.(interface{ Err() error }); ok {
		c.logErr = e.Err
	}
	if b, ok := opts.Logger.(interface{ BoundedLoss() bool }); ok {
		c.boundedLoss = b.BoundedLoss()
	}
	// The clock starts at 1 so a zero read stamp can never satisfy a "stamp >
	// snapshot" check (initial versions carry order 0 and are visible to
	// every snapshot).
	c.Clk.Raise(1)
	c.Active = new(ActiveSet)
}

// Of returns the chassis of a multi-version engine (internal/core,
// internal/jvstm), which both get through embedding, and nil for any other
// stm.TM, wrappers included. It is the one query for the multi-version
// machinery: clock, active set, logger.
func Of(tm stm.TM) *Chassis {
	if e, ok := tm.(interface{ chassis() *Chassis }); ok {
		return e.chassis()
	}
	return nil
}

func (c *Chassis) chassis() *Chassis { return c }

// Clock returns the logical clock (the health watchdog's progress measure).
func (c *Chassis) Clock() uint64 { return c.Clk.Load() }

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

// NewVarID returns the next variable id. Ids are dense, unique and in
// creation order: the first variable is 1. Commit locks are taken in id
// order, and a durable server predicts the ids its accounts get on recovery.
func (c *Chassis) NewVarID() uint64 { return c.varIDs.Add(1) }

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

// gcTick counts one installed commit and runs a collection pass every
// Opts.GCEveryNCommits of them. A pass visits only what was written since
// (Dirty), so it can run often enough to bring a variable that went cold
// back to its embedded version within a few transaction lifetimes (DESIGN.md
// §2).
func (c *Chassis) gcTick() {
	every := c.Opts.GCEveryNCommits
	if every < 0 {
		return
	}
	if c.gcCount.Add(1)%uint64(every) == 0 {
		c.GC()
	}
}

// Dirty is the collector's work list. An engine embeds one and keeps in each
// variable a queued flag guarded by the variable's commit lock: the install
// that finds the flag clear sets it and calls Add, and a pass's visit clears
// it, under the lock, once the variable has one version (on its embedded
// root, if it has one). So a variable is queued at most once, every variable
// with a version to free is queued, and one nobody writes leaves the queue.
// The two buffers are swapped, never reallocated in the steady state, and
// cleared as they drain, so the queue pins no variable that has left it.
type Dirty[V any] struct {
	mu      sync.Mutex
	pending []V // guarded by mu
	spare   []V // empty; only Drain touches it
}

// Add enqueues v; the caller holds v's commit lock and has just set its flag.
func (q *Dirty[V]) Add(v V) {
	q.mu.Lock()
	q.pending = append(q.pending, v)
	q.mu.Unlock()
}

// Drain calls visit on every variable queued when it starts and requeues
// those visit keeps; variables added meanwhile wait for the next pass.
// Drains must not overlap (the chassis's GC mutex serializes passes).
func (q *Dirty[V]) Drain(visit func(V) (keep bool)) {
	q.mu.Lock()
	work := q.pending
	q.pending = q.spare
	q.mu.Unlock()

	kept := work[:0]
	for _, v := range work {
		if visit(v) {
			kept = append(kept, v)
		}
	}
	clear(work[len(kept):])
	q.mu.Lock()
	q.pending = append(q.pending, kept...)
	q.mu.Unlock()
	clear(kept)
	q.spare = work[:0]
}
