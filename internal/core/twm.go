// Package core implements the Time-Warp Multi-version (TWM) software
// transactional memory algorithm of Diegues and Romano (PPoPP 2014),
// Algorithms 1 and 2, together with the surrounding machinery the paper
// describes in prose: the two commit time lines (natural order and time-warp
// order), semi-visible reads, triad validation, time-warp clash elision,
// an active-transaction registry, and multi-version garbage collection.
//
// Key properties (argued in §4 of the paper and checked by this package's
// tests and the internal/dsg oracle):
//
//   - committed transactions are serializable; the serialization order is the
//     time-warp order TW, with clashes broken in inverse natural order;
//   - read-only transactions never abort and never validate
//     (mv-permissiveness);
//   - all transactions, including aborted ones, observe snapshots producible
//     by some sequential history (Virtual World Consistency).
//
// The paper's prototype uses the lock-free commit of JVSTM; as the paper
// notes, that concern is orthogonal to time-warping, and Algorithms 1-2 are
// presented with per-variable commit locks. This implementation follows the
// lock-based presentation, acquiring write-set locks in variable-id order and
// bounding every lock wait that could participate in a cycle with a
// spin-then-self-abort (which can only add safe, rare aborts).
package core

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/mvutil"
	"repro/internal/stm"
)

// Options tunes a TWM instance. The zero value is the paper's algorithm with
// sensible defaults.
type Options struct {
	// DisableTimeWarp turns off Rules 1-2: any anti-dependency discovered at
	// commit aborts the transaction (the classic validation rule). The engine
	// then degenerates to a JVSTM-style multi-version STM; this is the
	// ablation that isolates the benefit of time-warp commits.
	DisableTimeWarp bool
	// GCEveryNCommits triggers a version garbage-collection pass each time
	// this many update transactions have committed. 0 selects the default;
	// negative disables automatic GC (tests use this to inspect version
	// lists).
	GCEveryNCommits int
	// LockSpinBudget bounds the spin iterations an update transaction waits
	// on a peer's commit lock before self-aborting. 0 selects the default.
	LockSpinBudget int
	// Opacity enables the extension sketched in §4.2 of the paper:
	// update transactions read with the read-only visibility rule (newest
	// version with twOrder <= start, time-warped versions included) and
	// perform semi-visible reads during execution, homogenizing the
	// serialization order perceived by all transactions. Commit-time
	// anti-dependency detection then keys on twOrder instead of natOrder.
	// See opacity.go.
	Opacity bool
	// Budget, when non-nil, caps the engine's version memory (see
	// mvutil.VersionBudget and DESIGN.md §11): soft pressure triggers eager
	// GC, hard pressure trims chains to MaxVersionDepth and, as a last
	// resort, fails commits with stm.ReasonMemoryPressure. A budget may be
	// shared with other engines. Nil (the default) leaves version memory
	// unbounded, preserving every paper guarantee unconditionally.
	Budget *mvutil.VersionBudget
	// MaxVersionDepth is the per-variable chain depth the hard-pressure trim
	// pass cuts to. 0 selects the default; it is only consulted when Budget
	// is set.
	MaxVersionDepth int
	// EagerStampSharding promotes every variable's semi-visible read stamp to
	// the sharded register at creation instead of adaptively under CAS
	// contention. It trades ~2 KiB per variable for shard-local raises from
	// the first read; the conformance battery and race soaks use it to drive
	// every read and every committer validation through the sharded path.
	EagerStampSharding bool
	// GroupCommit routes every update commit through a flat-combining
	// leader/follower stage (DESIGN.md §13): committers publish their
	// validated-ready write sets to a striped combiner queue, and one leader
	// drains a batch of pairwise write-write-disjoint members (overlapping
	// members spill to the next round), performing the paper's full commit
	// protocol for each member under a single global-clock advance per batch.
	// Mutually exclusive with Opacity and DisableTimeWarp. The engine's name
	// becomes "twm-gc".
	GroupCommit bool
	// GroupMaxBatch caps the members installed per combiner batch; 0 selects
	// mvutil.DefaultMaxBatch. Only consulted when GroupCommit is set.
	GroupMaxBatch int
	// GroupHooks injects the combiner's fault points (leader stall, batch
	// split) for adversarial tests; see mvutil.BatchHooks and internal/chaos.
	GroupHooks *mvutil.BatchHooks
	// Logger, when non-nil, makes every update commit durable through the
	// write-ahead-log seam (DESIGN.md §16): the write set is appended — in
	// time-warp commit order, with write locks still held, before any version
	// becomes visible — and the commit acknowledges only after the logger's
	// Durable wait. Nil (the default) keeps the engine memory-only with zero
	// commit-path cost. Must be set before the engine serves transactions.
	Logger stm.CommitLogger
	// ClockShards partitions the variable space into that many clock domains
	// (rounded up to a power of two, capped at mvutil.MaxClockShards; 0 and 1
	// keep the single global clock, byte-identical to the pre-sharding
	// engine). Every variable belongs to one shard; a transaction whose
	// footprint stays inside one shard commits against that shard's clock
	// alone (a single fetch-add — zero cross-shard coordination), and a
	// transaction spanning shards draws its write version through the
	// cross-shard fence (two-phase: lock write set in global id order, then
	// max-fold every touched shard's clock; DESIGN.md §17). Time-warp rules
	// apply per clock domain; cross-shard commits validate classically and
	// never warp. Mutually exclusive with Opacity.
	ClockShards int
	// Sharder overrides the variable→shard assignment (default: round-robin
	// on the variable id). It is consulted once, at NewVar, with the
	// effective shard count; it must be pure and total. Deterministic
	// sharders keep shard assignment stable across recovery replays.
	Sharder func(id uint64, shards int) int
}

const (
	defaultGCEvery   = 4096
	defaultSpinLimit = 2048
	defaultTrimDepth = 8
)

// TM is a Time-Warp Multi-version transactional memory instance.
type TM struct {
	opts Options
	// clock defines N and S. At ClockShards=1 it degenerates to the single
	// shared logical clock (cell 0), now on its own cache line instead of
	// sharing one with the hot TM fields below; at K>1 each shard's cell is
	// an independent number line (DESIGN.md §17).
	clock   mvutil.ClockDomain
	sharded bool // ClockShards > 1
	stats   stm.Stats
	prof    atomic.Pointer[stm.Profiler]

	active  *mvutil.ActiveSet
	gcCount atomic.Uint64
	gcMu    sync.Mutex

	// txns pools transaction descriptors (with their read/write-set backing
	// arrays and active-set slot) across attempts; see Recycle.
	txns sync.Pool
	// stampSeq deals out sticky home shards for sharded read stamps, one per
	// descriptor lifetime — the same scheme as ActiveSet slots.
	stampSeq atomic.Uint32
	// stampChunks holds partially dealt stamp chunks, one per P (newStamp).
	stampChunks sync.Pool

	varsMu  sync.Mutex
	vars    []*twvar
	history atomic.Bool

	// combiner is the flat-combining commit stage; nil unless
	// Options.GroupCommit. The scratch slices and claim map below are leader
	// state, guarded by the combiner's leader lock (the batch callback only
	// ever runs under it).
	combiner      *mvutil.Combiner
	batchPend     []*txn
	batchAdmitted []*txn
	batchShard    []*txn // sharded processing order (assignShardOrders)
	batchClaimed  map[*twvar]struct{}
	// batchLogged/batchRecs are the leader's durability scratch (Logger
	// only): the members whose unlocks are deferred until the batch record is
	// appended, and the one record per clock advance handed to the logger.
	batchLogged []*txn
	batchRecs   []stm.CommitRecord
}

// New returns a TWM instance with the given options.
func New(opts Options) *TM {
	if opts.GCEveryNCommits == 0 {
		opts.GCEveryNCommits = defaultGCEvery
	}
	if opts.LockSpinBudget == 0 {
		opts.LockSpinBudget = defaultSpinLimit
	}
	if opts.Opacity && opts.DisableTimeWarp {
		panic("core: Opacity and DisableTimeWarp are mutually exclusive")
	}
	if opts.MaxVersionDepth <= 0 {
		opts.MaxVersionDepth = defaultTrimDepth
	}
	if opts.GroupCommit && (opts.Opacity || opts.DisableTimeWarp) {
		// The batched install path implements exactly the default time-warp
		// commit protocol; the opacity and ablation variants keep the serial
		// path.
		panic("core: GroupCommit requires the default time-warp mode")
	}
	if opts.Opacity && opts.ClockShards > 1 {
		// The opacity extension homogenizes every transaction onto the
		// read-only visibility rule against one serialization order; a
		// per-shard order has no single twOrder line to homogenize onto.
		panic("core: Opacity and ClockShards > 1 are mutually exclusive")
	}
	tm := &TM{opts: opts}
	if opts.GroupCommit {
		tm.combiner = mvutil.NewCombiner(opts.GroupMaxBatch, opts.GroupHooks)
	}
	// Every shard's clock starts at 1 so the zero read stamp of a never-read
	// variable can never satisfy the stamp >= start target check in any
	// domain (initial versions keep natOrder = twOrder = 0 and are visible to
	// every snapshot).
	tm.sharded = tm.clock.Init(opts.ClockShards, 1) > 1
	tm.active = mvutil.NewActiveSet()
	tm.txns.New = func() any {
		return &txn{
			tm:         tm,
			stats:      tm.stats.Shard(),
			stampShard: int(tm.stampSeq.Add(1)) & (mvutil.StampShards - 1),
		}
	}
	return tm
}

// Name implements stm.TM.
func (tm *TM) Name() string {
	switch {
	case tm.opts.DisableTimeWarp:
		return "twm-notw"
	case tm.opts.Opacity:
		return "twm-opaque"
	case tm.opts.GroupCommit:
		return "twm-gc"
	}
	return "twm"
}

// MultiVersion implements stm.MultiVersioned.
func (tm *TM) MultiVersion() bool { return true }

// Stats implements stm.TM.
func (tm *TM) Stats() *stm.Stats { return &tm.stats }

// SetProfiler implements stm.Profilable.
func (tm *TM) SetProfiler(p *stm.Profiler) { tm.prof.Store(p) }

// Clock exposes a monotone logical-clock progress measure: the single clock
// value at ClockShards=1 and the sum of the shard cells otherwise (every
// commit strictly increases it, which is all the health watchdog and the
// tests that sample it rely on).
func (tm *TM) Clock() uint64 { return tm.clock.Sum() }

// ClockShards reports the effective clock-shard count (1 when unsharded).
func (tm *TM) ClockShards() int { return tm.clock.Shards() }

// ClockVec appends the current per-shard clock vector to dst (one consistent
// cut). Checkpoints use it to stamp snapshots with per-shard serials.
func (tm *TM) ClockVec(dst []uint64) []uint64 { return tm.clock.Snapshot(dst) }

// VarShard reports the clock shard v was assigned to (tests, checkpoints).
func (tm *TM) VarShard(v stm.Var) int { return int(v.(*twvar).shard) }

// ActiveSet exposes the active-transaction registry (health watchdog).
func (tm *TM) ActiveSet() *mvutil.ActiveSet { return tm.active }

// Budget exposes the configured version budget; nil when unbounded.
func (tm *TM) Budget() *mvutil.VersionBudget { return tm.opts.Budget }

// CommitLogger exposes the configured durability seam; nil when memory-only
// (the health watchdog probes it for the WAL-stall judge).
func (tm *TM) CommitLogger() stm.CommitLogger { return tm.opts.Logger }

// SeedClock advances every shard's clock to at least v. Recovery calls it,
// after replaying a write-ahead log whose highest serialization key is v and
// before the engine serves transactions, so every post-recovery commit orders
// strictly after everything recovered (recovered values are installed as
// initial versions with natOrder = twOrder = 0, visible to every snapshot).
// Raising every shard to the global maximum is always sound — clock values
// need not be dense, only monotone per shard — and stays correct even when
// the shard count or sharder changed across the restart.
func (tm *TM) SeedClock(v uint64) {
	for s := 0; s < tm.clock.Shards(); s++ {
		tm.clock.Raise(s, v)
	}
}

// SeedClockShard advances one shard's clock to at least v (per-shard recovery
// fast-forward from the WAL's per-shard max-Serial fold). Callers that cannot
// prove the variable→shard assignment is unchanged since the log was written
// must follow with SeedClock of the global maximum.
func (tm *TM) SeedClockShard(s int, v uint64) {
	if s >= 0 && s < tm.clock.Shards() {
		tm.clock.Raise(s, v)
	}
}

// CommitOrders reports the natural and time-warp commit orders assigned to a
// committed update transaction of this TM (both zero before commit). A
// transaction time-warp committed iff tw < nat. Exposed for tests, examples
// and instrumentation.
func (tm *TM) CommitOrders(txi stm.Tx) (nat, tw uint64) {
	tx := txi.(*txn)
	return tx.natOrder, tx.twOrder
}

// Start reports S(tx), the snapshot timestamp assigned at Begin (tests and
// instrumentation).
func (tm *TM) Start(txi stm.Tx) uint64 { return txi.(*txn).start }

// PromoteStamp forces v's semi-visible read stamp onto the sharded
// representation (tests and instrumentation; promotion otherwise happens
// adaptively when raisers contend on the stamp word). Safe concurrently
// with readers and committers — it performs exactly the publication step of
// the adaptive path, minus the raise.
func (tm *TM) PromoteStamp(v stm.Var) {
	tv := v.(*twvar)
	if tv.stamps.Load() != nil {
		return
	}
	s := new(mvutil.ShardedStamp)
	s.Seed(tv.stamp.Load())
	tv.stamps.CompareAndSwap(nil, s)
}

// StampSharded reports whether v's read stamp has been promoted (tests).
func (tm *TM) StampSharded(v stm.Var) bool { return v.(*twvar).stamps.Load() != nil }

// version is one committed value of a variable. Versions form a singly linked
// list from newest to oldest in descending twOrder; natOrder breaks no ties in
// the list because time-warp clashes are elided (paper lines 31-32).
type version struct {
	value    stm.Value
	natOrder uint64
	twOrder  uint64
	next     atomic.Pointer[version]
}

// timeWarped reports whether the version was produced by a time-warp commit.
func (v *version) timeWarped() bool { return v.natOrder != v.twOrder }

// twvar is the concrete transactional variable (Table 1's Var struct). The
// fields a read traverses — lock word, chain head and the embedded initial
// version — lead the struct and are stored to only by a committer installing
// a version; the semi-visible read stamp every reader raises lives off the
// variable, in a stamp chunk (DESIGN.md §12.4).
type twvar struct {
	owner  atomic.Pointer[txn] // commit lock; nil means unlocked
	latest atomic.Pointer[version]
	// root is the initial version, embedded so a read of a never-overwritten
	// variable follows no pointer out of the variable. GC unlinks it like any
	// other version; its bytes then simply wait for the variable to die.
	root version
	// stamp is the semi-visible read stamp (uncontended fast path): a slot in
	// one of the TM's stamp chunks, so raising it never invalidates the line
	// another transaction's traversal of this variable loads.
	stamp *atomic.Uint64

	// stamps, once non-nil, extends stamp with a sharded CAS-max register
	// (DESIGN.md §12). It is promoted lazily, the first time raisers actually
	// collide on stamp: a ShardedStamp is ~2 KiB, far too heavy for the many
	// cold variables an application allocates, while the single stamp word is
	// a scalability cliff on the few read-hot ones. After promotion readers
	// raise only their home shard and committers fold stamp into the shard
	// maximum, so a raise that landed in the word before (or while) the
	// promotion published is never lost.
	stamps atomic.Pointer[mvutil.ShardedStamp]

	hist *historyLog // non-nil only when history recording is enabled
	id   uint64
	// shard is the clock domain the variable belongs to (always 0 when
	// unsharded). Its versions' natOrder/twOrder, its read stamps and the
	// snapshot component it is read against all live on this shard's number
	// line; numbers from different shards are never compared.
	shard uint32
}

// stampChunk is 4 KiB of read-stamp slots dealt out in order to the variables
// one P creates: back-to-back creations by one goroutine get adjacent slots,
// concurrent creators get different chunks and hence different lines.
type stampChunk struct {
	slots [511]atomic.Uint64
	next  int // slots dealt; touched only by the chunk's current holder
}

// newStamp deals the next free stamp slot of this P's chunk. A chunk the
// pool drops (GC, race-mode sampling) merely strands its undealt slots; the
// dealt ones keep it alive through their interior pointers.
func (tm *TM) newStamp() *atomic.Uint64 {
	c, _ := tm.stampChunks.Get().(*stampChunk)
	if c == nil {
		c = new(stampChunk)
	}
	s := &c.slots[c.next]
	if c.next++; c.next < len(c.slots) {
		tm.stampChunks.Put(c)
	}
	return s
}

// VarID implements stm.IDedVar (commit-lock ordering).
func (v *twvar) VarID() uint64 { return v.id }

// NewVar implements stm.TM.
func (tm *TM) NewVar(initial stm.Value) stm.Var {
	v := &twvar{stamp: tm.newStamp()}
	v.root.value = initial
	v.latest.Store(&v.root)
	if tm.opts.EagerStampSharding {
		v.stamps.Store(new(mvutil.ShardedStamp))
	}
	if b := tm.opts.Budget; b != nil {
		// The initial version is charged too: GC may free it once newer
		// versions exist, and releases must balance installs.
		b.Install(1, mvutil.ApproxVersionBytes(initial))
	}
	if tm.history.Load() {
		v.hist = &historyLog{}
	}
	tm.varsMu.Lock()
	v.id = uint64(len(tm.vars)) + 1
	tm.vars = append(tm.vars, v)
	tm.varsMu.Unlock()
	if tm.sharded {
		v.shard = uint32(tm.shardOf(v.id))
	}
	return v
}

// shardOf maps a variable id to its clock shard through the configured
// sharder (default: round-robin), clamped into range.
func (tm *TM) shardOf(id uint64) int {
	k := tm.clock.Shards()
	if f := tm.opts.Sharder; f != nil {
		s := f(id, k) % k
		if s < 0 {
			s += k
		}
		return s
	}
	return tm.clock.ShardOf(id)
}

// gcOwner is the sentinel lock holder used by the garbage collector.
var gcOwner = new(txn)

// lock attempts to acquire v's commit lock for tx, spinning up to budget
// iterations. It reports whether the lock was acquired.
func (v *twvar) lock(tx *txn, budget int) bool {
	for i := 0; ; i++ {
		if v.owner.CompareAndSwap(nil, tx) {
			return true
		}
		if i >= budget {
			return false
		}
		runtime.Gosched()
	}
}

func (v *twvar) unlock(tx *txn) { v.owner.CompareAndSwap(tx, nil) }

// waitUnlocked spins until v is unlocked or held by self (self may be nil).
// A negative budget waits forever (used by read-only transactions, which must
// never abort; they hold no locks, so the wait always terminates).
// It reports false if the budget expired.
func (v *twvar) waitUnlocked(self *txn, budget int) bool {
	for i := 0; ; i++ {
		o := v.owner.Load()
		if o == nil || o == self {
			return true
		}
		if budget >= 0 && i >= budget {
			return false
		}
		runtime.Gosched()
	}
}

// waitUnlockedBatch is the leader's variant of waitUnlocked: locks held by
// other members of the batch being installed count as unlocked. The leader
// lock-phases every member before processing any of them, so during member
// m's read scan a not-yet-installed member k still holds its write locks; k's
// versions do not exist yet (exactly as in the sequential schedule, where m
// commits before k), so waiting on k's lock would deadlock the leader against
// itself. Only the GC's sentinel owner (never in a batch) is genuinely waited
// out.
func (v *twvar) waitUnlockedBatch(self *txn, budget int) bool {
	for i := 0; ; i++ {
		o := v.owner.Load()
		if o == nil || o == self || o.inBatch {
			return true
		}
		if budget >= 0 && i >= budget {
			return false
		}
		runtime.Gosched()
	}
}

// promoteAfterRetries is the stamp-word CAS failure count at which a raise
// promotes the variable's stamp to a sharded register. One failed CAS is
// ordinary bad luck; a second failure within the same raise means at least
// two other raisers hit this stamp concurrently — the read-hot case the
// sharding exists for.
const promoteAfterRetries = 2

// semiVisibleRead advances v's read stamp to at least ts via a CAS maximum
// (paper's SEMIVISIBLEREAD): readers are visible in aggregate, without
// tracking individual reader identities. The stamp is adaptive: the single
// stamp word serves uncontended variables with one CAS, and sustained
// CAS contention promotes the variable to a sharded register in which this
// descriptor raises only its sticky home shard (DESIGN.md §12). Failed CAS
// attempts are counted into the stamp-contention stats either way.
func (tx *txn) semiVisibleRead(v *twvar, ts uint64) {
	if s := v.stamps.Load(); s != nil {
		tx.stats.RecordStampRetries(s.Raise(tx.stampShard, ts))
		return
	}
	var retries uint64
	for {
		last := v.stamp.Load()
		if last >= ts || v.stamp.CompareAndSwap(last, ts) {
			tx.stats.RecordStampRetries(retries)
			return
		}
		if retries++; retries >= promoteAfterRetries {
			tx.promoteStamp(v, ts)
			tx.stats.RecordStampRetries(retries)
			return
		}
	}
}

// promoteStamp publishes a sharded register for v carrying this raise. The
// raise is installed in the candidate register *before* the pointer CAS so
// that publication and raise are one atomic event: a committer that loads
// the stamps pointer after the CAS sees the raise in the shard maximum, and
// a committer that loaded it before falls under the missed-raise case of the
// raise/observe argument (it still holds v's commit lock, so this reader's
// subsequent waitUnlocked orders the version traversal after the committer's
// publications — see DESIGN.md §12). If another reader wins the CAS the
// raise is redone in the winner's register.
func (tx *txn) promoteStamp(v *twvar, ts uint64) {
	s := new(mvutil.ShardedStamp)
	s.Seed(v.stamp.Load())
	s.Raise(tx.stampShard, ts)
	if !v.stamps.CompareAndSwap(nil, s) {
		tx.stats.RecordStampRetries(v.stamps.Load().Raise(tx.stampShard, ts))
	}
}

// stampMax observes v's semi-visible read stamp from the committer side: the
// stamp word folded with the shard maximum when a register has been
// promoted. The stamp word stays valid forever after promotion (raisers
// that lost the promotion race may have landed there), so both sources are
// always combined.
func (tx *txn) stampMax(v *twvar) uint64 {
	m := v.stamp.Load()
	if s := v.stamps.Load(); s != nil {
		tx.stats.RecordStampScan()
		if sm := s.Max(); sm > m {
			m = sm
		}
	}
	return m
}

// txn is a TWM transaction (Table 1's Tx struct). Descriptors are pooled
// (see Recycle); every slice below keeps its backing array across reuse.
type txn struct {
	tm       *TM
	stats    *stm.StatShard // striped counters; assigned once per descriptor
	readOnly bool
	start    uint64 // S(tx); at ClockShards>1 the min over vec (GC registration)

	// vec is the per-shard snapshot vector S(tx)[s], one consistent cut
	// sampled at Begin (sharded mode only; nil otherwise). Every read of a
	// variable in shard s is judged against vec[s]. smask/wmask accumulate
	// the footprint: the shards of every variable read or written (smask)
	// and written (wmask); a multi-bit smask routes Commit onto the
	// cross-shard protocol.
	vec   []uint64
	smask uint64
	wmask uint64

	readSet  []*twvar
	writeSet stm.WriteSet[*twvar] // insertion-ordered, commit sorts by id

	source     bool   // tx is the source of an anti-dependency edge
	target     bool   // tx is the target of an anti-dependency edge
	minAntiDep uint64 // min natOrder over anti-dependent committers; 0 = none
	natOrder   uint64 // N(tx), assigned at commit
	twOrder    uint64 // TW(tx), assigned at commit

	locked []*twvar    // commit locks currently held (for failure cleanup)
	slot   mvutil.Slot // active-set registration, reused across attempts
	// stampShard is the sticky home shard this descriptor raises in promoted
	// (sharded) read stamps; assigned once per descriptor so raises from one
	// goroutine keep hitting the same cache line.
	stampShard int

	lastReason stm.AbortReason // why the last Commit returned false

	// logRecs/logWrites/logShards are the durability scratch (Logger only):
	// the commit record handed to CommitLogger.Append is built here so the
	// backing arrays survive recycling. The logger must not retain them past
	// Append.
	logRecs   []stm.CommitRecord
	logWrites []stm.LoggedWrite
	logShards []uint32

	// req is this descriptor's embedded combiner request (GroupCommit only);
	// publication allocates nothing. inBatch marks the descriptor as a member
	// of the batch the leader is currently installing: it is written only by
	// the leader, under the combiner's leader lock, and read by the leader's
	// own scans (waitUnlockedBatch) — it is always false by the time the
	// request resolves, so no other goroutine ever observes it true.
	req     mvutil.CommitReq
	inBatch bool
}

// ReadOnly implements stm.Tx.
func (tx *txn) ReadOnly() bool { return tx.readOnly }

// LastAbortReason implements stm.AbortReasoner: the reason of the most recent
// commit-time abort, so the retry loop can report it to the contention
// manager (read-path aborts carry their reason in the retry signal instead).
func (tx *txn) LastAbortReason() stm.AbortReason { return tx.lastReason }

// Begin implements stm.TM. The returned transaction observes the snapshot
// defined by the logical clock at this instant (S(tx)) — at ClockShards>1,
// one consistent per-shard vector cut (see mvutil.ClockDomain.Snapshot for
// why the fence seqlock makes the cut consistent).
func (tm *TM) Begin(readOnly bool) stm.Tx {
	tx := tm.txns.Get().(*txn)
	tx.readOnly = readOnly
	tx.stats.RecordStart()
	if tm.sharded {
		tx.vec = tm.clock.Snapshot(tx.vec)
		// Register the whole vector: the GC folds per-shard bounds from it
		// (gc.go), so shard s's bound tracks the oldest *component s* among
		// active snapshots instead of the oldest min-component — one lagging
		// shard clock must not freeze collection everywhere else. The scalar
		// min still backs the quiesce fence and the health watchdog.
		min := tx.vec[0]
		for _, c := range tx.vec[1:] {
			if c < min {
				min = c
			}
		}
		tm.active.RegisterVec(&tx.slot, tx.vec, min)
		tx.start = min
		return tx
	}
	// Register in the active set before sampling the start timestamp so the
	// garbage collector can never trim a version this transaction may read.
	// One clock sample serves both: the registered value equals start, hence
	// the GC bound is <= start.
	c0 := tm.clock.Load(0)
	tm.active.Register(&tx.slot, c0)
	tx.start = c0
	return tx
}

// snap is the snapshot component a read of v is judged against: the shard's
// vector component at ClockShards>1, the scalar start otherwise.
func (tx *txn) snap(v *twvar) uint64 {
	if tx.vec != nil {
		return tx.vec[v.shard]
	}
	return tx.start
}

// Recycle implements stm.TxRecycler: reset the descriptor and return it to
// the pool. Only stm.Atomically calls this, after an attempt has fully
// finished; manual Begin/Commit users (tests, examples) never recycle, so
// post-commit inspection such as CommitOrders stays valid for them.
func (tm *TM) Recycle(txi stm.Tx) {
	tx, ok := txi.(*txn)
	if !ok {
		return
	}
	tx.readSet = stm.ResetVarSlice(tx.readSet)
	tx.writeSet.Reset()
	tx.locked = stm.ResetVarSlice(tx.locked)
	tx.source, tx.target = false, false
	tx.minAntiDep, tx.natOrder, tx.twOrder, tx.start = 0, 0, 0, 0
	tx.smask, tx.wmask = 0, 0 // vec keeps its backing array; Begin refills it
	tx.lastReason = stm.ReasonNone
	tm.txns.Put(tx)
}

// Read implements stm.Tx (paper's READ plus SEMIVISIBLEREAD).
func (tx *txn) Read(v stm.Var) stm.Value {
	tv := v.(*twvar)
	prof := tx.tm.prof.Load()
	var t0 int64
	if prof != nil {
		t0 = prof.Now()
	}
	var out stm.Value
	switch {
	case tx.readOnly:
		out = tx.readRO(tv)
	case tx.tm.opts.Opacity:
		out = tx.readOpaque(tv)
	default:
		out = tx.readUpdate(tv)
	}
	if prof != nil {
		prof.AddRead(prof.Now() - t0)
	}
	return out
}

// readRO is the read-only visibility rule: semi-visible read, then the newest
// version with twOrder <= start (time-warp committed versions included).
//
// Without a budget the walk always terminates: GC never frees the newest
// version visible at the oldest active snapshot. A hard-pressure trim may
// have cut the version this snapshot needs; the walk then runs off the chain
// and the transaction restarts with ReasonMemoryPressure — the one documented
// case where a read-only transaction aborts (a fresh attempt takes a current
// snapshot, which the trim depth always serves).
func (tx *txn) readRO(tv *twvar) stm.Value {
	// The semi-visible read must precede the lock wait so that a concurrent
	// committer either observes the raised stamp (and raises its target
	// flag) or has already published its versions before we traverse. The
	// stamp is raised in the variable's own clock domain.
	tx.semiVisibleRead(tv, tx.tm.clock.Load(int(tv.shard)))
	tv.waitUnlocked(nil, -1)
	snap := tx.snap(tv)
	ver := tv.latest.Load()
	for ver.twOrder > snap {
		ver = ver.next.Load()
		if ver == nil {
			tx.stats.RecordAbort(stm.ReasonMemoryPressure)
			stm.Retry(stm.ReasonMemoryPressure)
		}
	}
	return ver.value
}

// readUpdate is the update-transaction visibility rule: both twOrder and
// natOrder must be <= start, and skipping a version produced by a concurrent
// time-warp commit is an early Rule 2 abort.
func (tx *txn) readUpdate(tv *twvar) stm.Value {
	if val, ok := tx.writeSet.Get(tv); ok {
		return val // read-after-write
	}
	tx.readSet = append(tx.readSet, tv)
	tx.smask |= 1 << tv.shard
	if !tv.waitUnlocked(tx, tx.tm.opts.LockSpinBudget) {
		tx.stats.RecordAbort(stm.ReasonLockTimeout)
		stm.Retry(stm.ReasonLockTimeout)
	}
	snap := tx.snap(tv)
	ver := tv.latest.Load()
	for ver.twOrder > snap || ver.natOrder > snap {
		if ver.timeWarped() {
			tx.stats.RecordAbort(stm.ReasonTimeWarpSkip)
			stm.Retry(stm.ReasonTimeWarpSkip)
		}
		ver = ver.next.Load()
		if ver == nil {
			// A hard-pressure trim reclaimed the version this snapshot
			// needs (trim only cuts a chain suffix, so a walk that
			// terminates normally saw everything it would have pre-trim).
			tx.stats.RecordAbort(stm.ReasonMemoryPressure)
			stm.Retry(stm.ReasonMemoryPressure)
		}
	}
	return ver.value
}

// Write implements stm.Tx: writes are privately buffered until commit.
func (tx *txn) Write(v stm.Var, val stm.Value) {
	if tx.readOnly {
		panic("core: Write on a read-only transaction")
	}
	tv := v.(*twvar)
	tx.smask |= 1 << tv.shard
	tx.wmask |= 1 << tv.shard
	tx.writeSet.Put(tv, val)
}

// Abort implements stm.TM: cleanup after a retry signal or user abort.
// Statistics for engine-initiated aborts are recorded at the abort site, where
// the reason is known.
func (tm *TM) Abort(txi stm.Tx) {
	tx := txi.(*txn)
	tx.releaseLocks()
	tm.active.Unregister(&tx.slot)
}

func (tx *txn) releaseLocks() {
	for _, v := range tx.locked {
		v.unlock(tx)
	}
	tx.locked = tx.locked[:0]
}

// Commit implements stm.TM (paper's COMMIT, HANDLEWRITE, HANDLEREAD and
// CREATENEWVERSION). It returns false when the transaction must be retried;
// all cleanup has already happened in that case.
func (tm *TM) Commit(txi stm.Tx) bool {
	tx := txi.(*txn)
	defer tm.active.Unregister(&tx.slot)

	if tx.readOnly || tx.writeSet.Len() == 0 {
		// Read-only transactions never validate and never abort. An update
		// transaction that wrote nothing also commits unvalidated: in the
		// default mode its visibility rule early-aborts on any concurrently
		// time-warped version, so its snapshot is the committed state at
		// S(tx); in opacity mode its reads already follow the read-only
		// rule. Writing nothing, it cannot be the target of an
		// anti-dependency, so no triad can pivot on it.
		tx.stats.RecordCommit(tx.readOnly)
		return true
	}

	if tm.combiner != nil {
		// Group commit: publish the write set to the flat-combining stage and
		// let a leader — possibly this goroutine — perform the whole protocol
		// batched (groupcommit.go).
		return tm.commitGrouped(tx)
	}

	// Version-memory backpressure: before taking any commit lock, make sure
	// the budget can absorb this transaction's installs, escalating through
	// eager GC and chain trimming; when even those cannot relieve hard
	// pressure, the commit fails so the retry loop and contention manager can
	// react (no locks are held yet).
	if tm.opts.Budget != nil && !tm.admitInstall() {
		return tm.failCommit(tx, stm.ReasonMemoryPressure)
	}

	// Clock-pressure relief (GV5-style "pass on abort", DESIGN.md §12): a
	// commit that is already provably doomed aborts here, before taking any
	// lock and — crucially — before bumping the shared clock at natOrder
	// assignment. Failed commits that bump the clock push every concurrent
	// snapshot further behind the present, manufacturing more stale reads and
	// more failed commits; passing on the bump breaks that feedback loop. The
	// check is conservative (only monotone, certainly-fatal conditions abort)
	// so it can never reject a commit the authoritative path would accept.
	if !tm.opts.Opacity {
		if r := tx.preDoomed(); r != stm.ReasonNone {
			return tm.failCommit(tx, r)
		}
	}

	if tm.sharded && tx.smask&(tx.smask-1) != 0 {
		// The footprint spans clock shards: the two-phase cross-shard commit
		// draws its write version through the fence and validates classically
		// per shard (commitCross below). Everything under this line is the
		// single-shard path — at ClockShards>1 it runs unchanged against the
		// footprint shard's clock alone.
		return tm.commitCross(tx)
	}

	prof := tm.prof.Load()
	var t0 int64
	if prof != nil {
		t0 = prof.Now()
		defer prof.AddTx()
	}

	// HANDLEWRITE: acquire commit locks in id order (deadlock avoidance) and
	// detect anti-dependencies targeting tx via the semi-visible read stamps.
	// Lookups are over, so sorting the entries in place is legal; the
	// insertion-sort fast path plus a closure-free comparator keeps this off
	// the allocator entirely (sort.Slice boxed the closure and the swapper).
	ents := tx.writeSet.Entries()
	stm.SortEntriesByID(ents)
	budget := tm.opts.LockSpinBudget
	for i := range ents {
		v := ents[i].Key
		if !v.lock(tx, budget) {
			return tm.failCommit(tx, stm.ReasonLockTimeout)
		}
		tx.locked = append(tx.locked, v)
		if tx.stampMax(v) > tx.snap(v) {
			// Some transaction concurrent with tx read a variable tx is
			// about to overwrite: tx is the target of an anti-dependency.
			// (The paper checks >= with stamps taken before the stamper's
			// clock increment; our stamps are taken after it, so the strict
			// inequality is the same condition: a reader stamped at or below
			// our start serializes at or below it, while any time-warp
			// destination of ours exceeds start.)
			tx.target = true
		}
	}
	if prof != nil {
		now := prof.Now()
		prof.AddWriteSetVal(now - t0)
		t0 = now
	}

	// Assign the natural commit order N(tx) *before* scanning the read set.
	// The paper presents the increment after validation (line 65), relying on
	// the atomicity of its lock-free commit; in a lock-based commit that
	// order admits a race in which two committers scan before either inserts
	// and both miss the other's anti-dependency. With the increment first,
	// the scan below provably observes every version of every committer with
	// a smaller N: such a committer already held all its write locks when it
	// drew its timestamp, and it releases each lock only after inserting into
	// that variable — so the lock wait in the scan orders us behind it. (At
	// ClockShards>1 the whole footprint lives in one shard, so "smaller N"
	// is well defined on that shard's number line and the argument carries
	// over verbatim; cross-shard draws through the fence only ever raise the
	// cell, preserving monotonicity.)
	tx.natOrder = tm.clock.Add(tx.homeShard(), 1)

	// HANDLEREAD: make the reads visible, then detect anti-dependencies
	// originating at tx (versions of read variables committed after start).
	// The stamp is our own draw, not a fresh clock sample: under the strict
	// target check that is the paper's pre-increment condition exactly, and
	// it keeps the scan off the clock line (DESIGN.md §7 item 1).
	for _, v := range tx.readSet {
		tx.semiVisibleRead(v, tx.natOrder)
		if !v.waitUnlocked(tx, budget) {
			return tm.failCommit(tx, stm.ReasonLockTimeout)
		}
		snap := tx.snap(v)
		ver := v.latest.Load()
		if tm.opts.Opacity {
			if r := tx.scanOpaque(ver); r != stm.ReasonNone {
				return tm.failCommit(tx, r)
			}
			continue
		}
		for ver.natOrder > snap {
			if tm.opts.DisableTimeWarp {
				// Ablation: classic validation rejects any stale read.
				return tm.failCommit(tx, stm.ReasonReadConflict)
			}
			if ver.timeWarped() {
				// Rule 2: the writer time-warp committed; if tx committed
				// now the writer would become a time-warping pivot (and if
				// the writer serialized after us in N, its warp destination
				// is unordered against ours).
				return tm.failCommit(tx, stm.ReasonTimeWarpSkip)
			}
			if ver.natOrder < tx.natOrder {
				// The writer committed between our start and our own commit
				// without time-warping: a genuine anti-dependency; Rule 1
				// serializes us before the earliest such writer.
				if tx.minAntiDep == 0 || ver.natOrder < tx.minAntiDep {
					tx.minAntiDep = ver.natOrder
				}
				tx.source = true
			}
			// Versions with natOrder > ours belong to committers that will
			// serialize after us at their own (un-warped) natural position;
			// our twOrder <= natOrder < theirs already orders us first.
			ver = ver.next.Load()
			if ver == nil {
				// A trim reclaimed the tail before the scan reached a
				// version at or below our snapshot: anti-dependency
				// information may be lost, so abort rather than risk a
				// mis-serialized commit.
				return tm.failCommit(tx, stm.ReasonMemoryPressure)
			}
		}
	}
	if prof != nil {
		now := prof.Now()
		prof.AddReadSetVal(now - t0)
		t0 = now
	}

	// Rule 2: tx may not become a time-warping pivot.
	if tx.target && tx.source {
		return tm.failCommit(tx, stm.ReasonTriad)
	}

	// Rule 1: assign the time-warp commit order.
	if tx.minAntiDep == 0 {
		tx.twOrder = tx.natOrder
	} else {
		tx.twOrder = tx.minAntiDep // time-warp commit, before every missed writer
	}

	// Durability: append the write set to the log while every write lock is
	// still held — nothing is visible yet, so append order respects the
	// reads-from order and a crash can only lose a dependency-closed suffix.
	// A refused append fails the commit with nothing installed.
	var lsn stm.LSN
	if l := tm.opts.Logger; l != nil {
		tx.logRecs = append(tx.logRecs[:0], tx.logRecord())
		var err error
		if lsn, err = l.Append(tx.logRecs); err != nil {
			return tm.failCommit(tx, stm.ReasonDurability)
		}
	}

	for i := range ents {
		tm.createNewVersion(tx, ents[i].Key, ents[i].Val, nil)
		ents[i].Key.unlock(tx)
	}
	tx.locked = tx.locked[:0]
	if prof != nil {
		prof.AddCommit(prof.Now() - t0)
	}
	tx.stats.RecordCommit(false)
	if tm.sharded {
		tx.stats.RecordShardCommit(false)
	}
	tm.maybeGC()
	if l := tm.opts.Logger; l != nil {
		// Acknowledge only at the policy's durability point. An error here
		// means the writer latched mid-wait; the in-memory commit stands (the
		// versions are visible — reporting failure would invite a
		// double-apply) and every later commit fails at Append instead.
		l.Durable(lsn) //nolint:errcheck
	}
	return true
}

// logRecord builds tx's commit record from its write-set entries in the
// descriptor's scratch. Serial is the time-warp order (the serialization
// key); Tie the natural order (equal-Serial clashes replay smallest-Tie, the
// same winner clash elision keeps in memory). At ClockShards>1 the record
// carries the write-footprint shard vector so recovery can fold a per-shard
// max serial; unsharded records leave it nil and stay byte-identical on disk.
func (tx *txn) logRecord() stm.CommitRecord {
	ents := tx.writeSet.Entries()
	tx.logWrites = tx.logWrites[:0]
	for i := range ents {
		tx.logWrites = append(tx.logWrites, stm.LoggedWrite{VarID: ents[i].Key.id, Value: ents[i].Val})
	}
	rec := stm.CommitRecord{Serial: tx.twOrder, Tie: tx.natOrder, Writes: tx.logWrites}
	if tx.tm.sharded {
		tx.logShards = tx.logShards[:0]
		for m := tx.wmask; m != 0; m &= m - 1 {
			tx.logShards = append(tx.logShards, uint32(bits.TrailingZeros64(m)))
		}
		rec.Shards = tx.logShards
	}
	return rec
}

// homeShard is the clock shard a single-shard-footprint transaction commits
// against (0 in unsharded mode, where the mask may be unset).
func (tx *txn) homeShard() int {
	if tx.smask != 0 {
		return bits.TrailingZeros64(tx.smask)
	}
	return 0
}

// commitCross is the two-phase cross-shard commit (DESIGN.md §17), taken when
// the footprint spans clock domains and no single shard's number line can
// order the transaction.
//
// Phase one locks the write set in global variable-id order — the same
// deadlock-avoidance order the serial path uses; id order is shard-agnostic,
// so single-shard and cross-shard committers interleave safely. The lock-phase
// stamp (target) check is skipped: a cross-shard commit never time-warps, and
// its write version wv exceeds every number previously drawn on every touched
// shard, so it cannot shadow a stamped reader.
//
// Phase two draws wv through the cross-shard fence: one more than the maximum
// over every FOOTPRINT shard's clock (reads included — causality hops shard
// boundaries only through cross-footprint transactions, and the consistency
// of Begin's vector cuts rests on every such hop raising all the shards it
// connects inside one fence; see mvutil.ClockDomain). Each touched cell is
// raised to wv while the fence seqlock is odd, so a concurrent vector cut
// observes either no touched component at wv or all of them — never half a
// cross commit.
//
// Validation is then classic per shard: a version of a read variable with
// natural order in (vec[s], wv] on its shard's line means the read is stale
// and the commit aborts (cross commits cannot warp behind it, and an equal
// order would leave the pair unordered); versions above wv belong to
// committers that serialize after us — the anti-dependency they create points
// forward and is consistent with our position at wv on every touched line.
// Rule 1 is never invoked and the triad rule is vacuous (no warp, no pivot):
// natOrder = twOrder = wv.
func (tm *TM) commitCross(tx *txn) bool {
	prof := tm.prof.Load()
	var t0 int64
	if prof != nil {
		t0 = prof.Now()
		defer prof.AddTx()
	}

	ents := tx.writeSet.Entries()
	stm.SortEntriesByID(ents)
	budget := tm.opts.LockSpinBudget
	for i := range ents {
		v := ents[i].Key
		if !v.lock(tx, budget) {
			return tm.failCommit(tx, stm.ReasonLockTimeout)
		}
		tx.locked = append(tx.locked, v)
	}
	if prof != nil {
		now := prof.Now()
		prof.AddWriteSetVal(now - t0)
		t0 = now
	}

	// Draw the write version before scanning the read set, for the same
	// publication argument as the serial path: every committer with a smaller
	// order on any touched shard held its write locks when it drew, so the
	// lock waits below order our traversals behind its inserts.
	wv, casRetries := tm.clock.AdvanceCross(tx.smask)
	tx.stats.RecordShardCASRetries(casRetries)
	tx.natOrder, tx.twOrder = wv, wv

	for _, v := range tx.readSet {
		tx.semiVisibleRead(v, tx.natOrder)
		if !v.waitUnlocked(tx, budget) {
			return tm.failCommit(tx, stm.ReasonLockTimeout)
		}
		snap := tx.snap(v)
		ver := v.latest.Load()
		for ver.natOrder > snap {
			if ver.timeWarped() {
				// A concurrent committer warped a version of a variable we
				// read; committing would leave our stale read unordered
				// against its warp destination.
				return tm.failCommit(tx, stm.ReasonTimeWarpSkip)
			}
			if ver.natOrder <= wv {
				// The writer serialized between our snapshot and wv: our read
				// is stale and a cross-shard commit cannot warp behind it.
				return tm.failCommit(tx, stm.ReasonReadConflict)
			}
			ver = ver.next.Load()
			if ver == nil {
				// Trimmed past the snapshot (see the serial scan).
				return tm.failCommit(tx, stm.ReasonMemoryPressure)
			}
		}
	}
	if prof != nil {
		now := prof.Now()
		prof.AddReadSetVal(now - t0)
		t0 = now
	}

	var lsn stm.LSN
	if l := tm.opts.Logger; l != nil {
		tx.logRecs = append(tx.logRecs[:0], tx.logRecord())
		var err error
		if lsn, err = l.Append(tx.logRecs); err != nil {
			return tm.failCommit(tx, stm.ReasonDurability)
		}
	}

	for i := range ents {
		tm.createNewVersion(tx, ents[i].Key, ents[i].Val, nil)
		ents[i].Key.unlock(tx)
	}
	tx.locked = tx.locked[:0]
	if prof != nil {
		prof.AddCommit(prof.Now() - t0)
	}
	tx.stats.RecordCommit(false)
	tx.stats.RecordShardCommit(true)
	tm.maybeGC()
	if l := tm.opts.Logger; l != nil {
		l.Durable(lsn) //nolint:errcheck
	}
	return true
}

// preDoomed checks cheap, monotone doom conditions before the commit draws
// its natural order or takes any lock, looking only at read-set heads and
// write-set stamps. Every signal used here can only intensify between this
// check and the authoritative commit path — read stamps only rise, version
// heads only get newer, and any version existing now carries a natural order
// below any timestamp this transaction could still draw — so a doom verdict
// is always genuine, never speculative:
//
//   - DisableTimeWarp ablation: a head newer than the snapshot is exactly
//     the classic validation failure the scan would hit first.
//   - A time-warped head newer than the snapshot is a Rule 2 abort; if GC
//     or trimming removes it first, every remaining newer version either
//     aborts the scan itself or ends it in ReasonMemoryPressure.
//   - An un-warped head newer than the snapshot makes this transaction an
//     anti-dependency source; combined with a raised stamp on any write-set
//     variable (the target condition the lock loop would find) the triad
//     rule applies.
//
// The authoritative scan still runs on the surviving path — it performs the
// commit-time semi-visible raises and walks complete chains; this check only
// lets doomed commits fail without touching the clock.
func (tx *txn) preDoomed() stm.AbortReason {
	tm := tx.tm
	// A cross-shard footprint commits classically and never warps: any stale
	// read-set head is fatal there, exactly as in the ablation engine. (Every
	// version existing now has a natural order below the write version the
	// cross commit would draw — AdvanceCross returns one more than the maximum
	// over the touched cells — so the authoritative per-shard scan aborts on
	// the same version.)
	cross := tm.sharded && tx.smask&(tx.smask-1) != 0
	source := false
	for _, v := range tx.readSet {
		ver := v.latest.Load()
		if ver.natOrder <= tx.snap(v) {
			continue
		}
		if tm.opts.DisableTimeWarp || cross {
			if ver.timeWarped() {
				return stm.ReasonTimeWarpSkip
			}
			return stm.ReasonReadConflict
		}
		if ver.timeWarped() {
			return stm.ReasonTimeWarpSkip
		}
		source = true
	}
	if !source {
		return stm.ReasonNone
	}
	ents := tx.writeSet.Entries()
	for i := range ents {
		if tx.stampMax(ents[i].Key) > tx.snap(ents[i].Key) {
			return stm.ReasonTriad // source ∧ target
		}
	}
	return stm.ReasonNone
}

// failCommit records the abort, releases held locks and reports failure. The
// reason is kept on the descriptor for stm.AbortReasoner.
func (tm *TM) failCommit(tx *txn, reason stm.AbortReason) bool {
	tx.releaseLocks()
	tx.stats.RecordAbort(reason)
	tx.lastReason = reason
	return false
}

// createNewVersion inserts tx's write to v in descending twOrder. On a
// time-warp clash (equal twOrder) the insertion is skipped: clashing
// transactions serialize in inverse natural order, so the version of the
// earliest natural committer — which, holding the commit lock, necessarily
// inserted first — is the one later transactions must not shadow.
//
// When the insertion walk runs off a chain shortened by a hard-pressure trim
// (every retained version has a larger twOrder than ours), the insertion is
// also skipped: appending below the trim cut would let a reader whose
// snapshot falls between our twOrder and the oldest retained version observe
// our value where a (trimmed) newer-serialized one was due. Skipping keeps
// those readers on the documented degradation path instead — their walk
// reaches nil and restarts with stm.ReasonMemoryPressure — and changes
// nothing for readers and scans that terminate within the retained prefix.
//
// charge, when non-nil, accumulates the version-budget install instead of
// charging it immediately — the group-commit leader flushes one accumulated
// charge per batch (DESIGN.md §13).
func (tm *TM) createNewVersion(tx *txn, v *twvar, val stm.Value, charge *mvutil.BatchCharge) {
	var newer *version
	older := v.latest.Load()
	for older != nil && tx.twOrder < older.twOrder {
		newer = older
		older = older.next.Load()
	}
	if older == nil {
		if v.hist != nil {
			v.hist.append(stm.VersionRecord{Value: val, Serial: tx.twOrder, Tie: tx.natOrder, Elided: true})
		}
		return // below the trim cut; see above
	}
	if tx.twOrder == older.twOrder {
		if v.hist != nil {
			v.hist.append(stm.VersionRecord{Value: val, Serial: tx.twOrder, Tie: tx.natOrder, Elided: true})
		}
		return // no transaction will ever read this value
	}
	ver := &version{value: val, natOrder: tx.natOrder, twOrder: tx.twOrder}
	ver.next.Store(older)
	if newer == nil {
		v.latest.Store(ver)
	} else {
		newer.next.Store(ver)
	}
	if b := tm.opts.Budget; b != nil {
		if charge != nil {
			charge.Add(1, mvutil.ApproxVersionBytes(val))
		} else {
			b.Install(1, mvutil.ApproxVersionBytes(val))
		}
	}
	if v.hist != nil {
		v.hist.append(stm.VersionRecord{Value: val, Serial: tx.twOrder, Tie: tx.natOrder})
	}
}

// admitInstall enforces the version budget before a commit may install new
// versions, escalating until pressure relents: soft pressure triggers an
// eager GC pass (non-blocking — when another pass is already running it frees
// versions on our behalf), hard pressure runs a blocking pass, then trims
// every chain to MaxVersionDepth, and when even trimming leaves the budget
// above its hard limit the install is refused. It runs before any commit lock
// is taken and reports whether the commit may proceed.
func (tm *TM) admitInstall() bool {
	b := tm.opts.Budget
	switch b.Level() {
	case mvutil.PressureNone:
		return true
	case mvutil.PressureSoft:
		if tm.gcMu.TryLock() {
			tm.gcLocked()
			tm.gcMu.Unlock()
			b.NoteSoftGC()
		}
		return true
	}
	// Hard pressure: one blocking pass at a time serves every committer that
	// hit the limit together (they re-check the level under the lock, so the
	// losers of the lock race usually find the pressure already relieved).
	tm.gcMu.Lock()
	if b.Level() == mvutil.PressureHard {
		tm.gcLocked()
		b.NoteSoftGC()
	}
	if b.Level() == mvutil.PressureHard {
		tm.trimLocked(tm.opts.MaxVersionDepth)
		b.NoteTrim()
	}
	level := b.Level()
	tm.gcMu.Unlock()
	if level == mvutil.PressureHard {
		b.NoteReject()
		return false
	}
	return true
}
