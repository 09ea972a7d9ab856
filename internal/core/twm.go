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
	"sync"
	"sync/atomic"

	"repro/internal/mvutil"
	"repro/internal/stm"
)

// Options tunes a TWM instance: the settings shared with the other
// multi-version engine (mvutil.Options) plus TWM's own switch. The zero value
// is the paper's algorithm with sensible defaults.
type Options struct {
	mvutil.Options
	// DisableTimeWarp turns off Rules 1-2: any anti-dependency discovered at
	// commit aborts the transaction (the classic validation rule). The engine
	// then degenerates to a JVSTM-style multi-version STM; this is the
	// ablation that isolates the benefit of time-warp commits.
	DisableTimeWarp bool
}

// TM is a Time-Warp Multi-version transactional memory instance.
type TM struct {
	// Chassis is the machinery shared with internal/jvstm: commit clock,
	// active set, GC schedule, logger and the commit pipeline.
	mvutil.Chassis
	// The TWM-only switch; the shared options live in Chassis.Opts.
	notw  bool
	stats stm.Stats

	// txns pools transaction descriptors (with their read/write-set backing
	// arrays and active-set slot) across attempts; see Recycle.
	txns sync.Pool
	// stampChunks holds partially dealt stamp chunks, one per P (newStamp).
	stampChunks sync.Pool

	varsMu  sync.Mutex
	vars    []*twvar
	history atomic.Bool
	// sweptAt is the clock as the last collector pass ended (sweep's re-root
	// rule); guarded by the chassis's GC mutex.
	sweptAt uint64
}

// New returns a TWM instance with the given options.
func New(opts Options) *TM {
	tm := &TM{notw: opts.DisableTimeWarp}
	tm.Init(opts.Options, &tm.stats, tm.sweep)
	tm.txns.New = func() any {
		tx := &txn{tm: tm}
		tm.InitDesc(&tx.Desc, tx)
		return tx
	}
	return tm
}

// Name implements stm.TM.
func (tm *TM) Name() string {
	if tm.notw {
		return "twm-notw"
	}
	return "twm"
}

// Stats implements stm.TM.
func (tm *TM) Stats() *stm.Stats { return &tm.stats }

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

// ReadStamp reports v's semi-visible read stamp as a committer would observe
// it (tests and instrumentation: a read that left it unchanged did not stamp).
func (tm *TM) ReadStamp(v stm.Var) uint64 { return v.(*twvar).stamp.Load() }

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

// twvar is the concrete transactional variable (Table 1's Var struct). What a
// read barrier loads unless it stamps — lock word, chain head and the
// embedded version — leads the struct and is stored to only by a
// committer installing a version or the collector re-rooting one; the
// semi-visible read stamp lives off the variable, in a stamp chunk
// (DESIGN.md §12.4).
type twvar struct {
	owner  mvutil.Lock // commit lock
	latest atomic.Pointer[version]
	// root is a version embedded in the variable — the initial one, and after
	// that whichever sole surviving version the collector copies back (sweep)
	// — so a read of a variable with one version follows no pointer out of it.
	root version
	// rootFree marks root as unlinked from the chain and so reusable once the
	// transactions that may still stand on it are gone. Only sweep touches it.
	rootFree bool

	// stamp is the semi-visible read stamp (Table 1's readStamp): a slot in
	// one of the TM's stamp chunks, so raising it never invalidates the line
	// another transaction's traversal of this variable loads.
	stamp *atomic.Uint64

	hist *stm.VersionLog // non-nil only when history recording is enabled
	id   uint64
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
	if tm.history.Load() {
		v.hist = new(stm.VersionLog)
	}
	tm.varsMu.Lock()
	v.id = uint64(len(tm.vars)) + 1
	tm.vars = append(tm.vars, v)
	tm.varsMu.Unlock()
	return v
}

// semiVisibleRead advances v's read stamp to at least ts via a CAS maximum
// (paper's SEMIVISIBLEREAD): readers are visible in aggregate, without
// tracking individual reader identities. Failed CAS attempts are counted into
// the stamp-contention stats.
func (tx *txn) semiVisibleRead(v *twvar, ts uint64) {
	var retries uint64
	for {
		last := v.stamp.Load()
		if last >= ts || v.stamp.CompareAndSwap(last, ts) {
			tx.Stats.RecordStampRetries(retries)
			return
		}
		retries++
	}
}

// txn is a TWM transaction (Table 1's Tx struct). Descriptors are pooled
// (see Recycle); every slice below keeps its backing array across reuse.
type txn struct {
	// Desc is the header shared with internal/jvstm: counters, active-set
	// slot and the commit pipeline's per-commit state. It is also the identity that owns commit locks.
	mvutil.Desc
	tm       *TM
	readOnly bool
	// quiet marks a read-only transaction that found no older update
	// transaction in flight at Begin and therefore reads without stamping
	// (DESIGN.md §12.5).
	quiet bool
	start uint64 // S(tx)

	readSet  []*twvar
	writeSet stm.WriteSet[*twvar] // insertion-ordered; Writes sorts by id

	source     bool   // tx is the source of an anti-dependency edge
	target     bool   // tx is the target of an anti-dependency edge
	minAntiDep uint64 // min natOrder over anti-dependent committers; 0 = none
	natOrder   uint64 // N(tx), assigned at commit
	twOrder    uint64 // TW(tx), assigned at commit
}

// ReadOnly implements stm.Tx.
func (tx *txn) ReadOnly() bool { return tx.readOnly }

// Begin implements stm.TM. The returned transaction observes the snapshot
// defined by the logical clock at this instant (S(tx)); see Chassis.Snapshot.
//
// A read-only transaction then scans the active set once: its read stamps
// exist to make an update transaction that would time-warp into its snapshot
// see itself as a triad's pivot, and only one that began below the snapshot
// can warp into it — with none in flight that has yet to look at the stamps
// (Validate), the reads need no stamp (DESIGN.md §12.5).
func (tm *TM) Begin(readOnly bool) stm.Tx {
	tx := tm.txns.Get().(*txn)
	tx.readOnly = readOnly
	tx.Stats.RecordStart()
	tx.start = tm.Snapshot(&tx.Desc, !readOnly)
	tx.quiet = readOnly && tm.Quiet(tx.start)
	return tx
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
	tx.Reset()
	tx.readSet = stm.ResetVarSlice(tx.readSet)
	tx.writeSet.Reset()
	tx.source, tx.target = false, false
	tx.minAntiDep, tx.natOrder, tx.twOrder, tx.start = 0, 0, 0, 0
	tm.txns.Put(tx)
}

// Read implements stm.Tx (paper's READ plus SEMIVISIBLEREAD).
func (tx *txn) Read(v stm.Var) stm.Value {
	tv := v.(*twvar)
	prof := tx.tm.stats.Profiler()
	var t0 int64
	if prof != nil {
		t0 = prof.Now()
	}
	var out stm.Value
	if tx.readOnly {
		out = tx.readRO(tv)
	} else {
		out = tx.readUpdate(tv)
	}
	if prof != nil {
		prof.AddRead(prof.Now() - t0)
	}
	return out
}

// readRO is the read-only visibility rule: semi-visible read (elided when the
// transaction is quiet), then the newest version with twOrder <= start
// (time-warp committed versions included).
//
// The walk always terminates: GC never frees the newest version visible at
// the oldest active snapshot, so a read-only transaction never aborts.
func (tx *txn) readRO(tv *twvar) stm.Value {
	// The semi-visible read must precede the lock wait so that a concurrent
	// committer either observes the raised stamp (and raises its target
	// flag) or has already published its versions before we traverse. A
	// quiet transaction
	// keeps only the wait: the committers it can meet serialize after its
	// snapshot wherever they warp to, unless they drew at or below it — and
	// those hold the lock until their versions are in.
	if !tx.quiet {
		tx.semiVisibleRead(tv, tx.tm.Clk.Load())
	}
	tv.owner.WaitUnlocked(nil, -1)
	ver := tv.latest.Load()
	for ver.twOrder > tx.start {
		ver = ver.next.Load()
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
	if !tv.owner.WaitUnlocked(&tx.Desc, tx.tm.Opts.LockSpinBudget) {
		tx.Stats.RecordAbort(stm.ReasonLockTimeout)
		stm.Retry(stm.ReasonLockTimeout)
	}
	ver := tv.latest.Load()
	for ver.twOrder > tx.start || ver.natOrder > tx.start {
		if ver.timeWarped() {
			tx.Stats.RecordAbort(stm.ReasonTimeWarpSkip)
			stm.Retry(stm.ReasonTimeWarpSkip)
		}
		ver = ver.next.Load()
	}
	return ver.value
}

// Write implements stm.Tx: writes are privately buffered until commit.
func (tx *txn) Write(v stm.Var, val stm.Value) {
	if tx.readOnly {
		panic("core: Write on a read-only transaction")
	}
	tx.writeSet.Put(v.(*twvar), val)
}

// Abort implements stm.TM: cleanup after a retry signal or user abort.
// Statistics for engine-initiated aborts are recorded at the abort site, where
// the reason is known. No commit lock outlives CommitUpdate, so there is none
// to release here.
func (tm *TM) Abort(txi stm.Tx) {
	tm.Active.Unregister(&txi.(*txn).Slot)
}

// Commit implements stm.TM (paper's COMMIT). It returns false when the
// transaction must be retried; all cleanup has already happened in that case.
// The protocol's stages — locking, order draw, logging, release — are the
// shared pipeline's (mvutil.Chassis.CommitUpdate); HANDLEWRITE's stamp check,
// HANDLEREAD and Rules 1-2 are Validate below, CREATENEWVERSION is Install.
func (tm *TM) Commit(txi stm.Tx) bool {
	tx := txi.(*txn)
	defer tm.Active.Unregister(&tx.Slot)

	if tx.readOnly || tx.writeSet.Len() == 0 {
		// Read-only transactions never validate and never abort. An update
		// transaction that wrote nothing also commits unvalidated: its
		// visibility rule early-aborts on any concurrently time-warped
		// version, so its snapshot is the committed state at S(tx). Writing
		// nothing, it cannot be the target of an anti-dependency, so no triad
		// can pivot on it.
		tx.Stats.RecordCommit(tx.readOnly)
		if tx.quiet {
			tx.Stats.RecordQuietRO()
		}
		return true
	}
	return tm.CommitUpdate(&tx.Desc)
}

// Writes implements mvutil.Member. Lookups are over once a transaction
// commits, so sorting the entries in place is legal; the insertion-sort fast
// path plus a closure-free comparator keeps this off the allocator entirely.
func (tx *txn) Writes(dst []mvutil.WriteRef) []mvutil.WriteRef {
	ents := tx.writeSet.Entries()
	stm.SortEntriesByID(ents)
	for i := range ents {
		v := ents[i].Key
		dst = append(dst, mvutil.WriteRef{Lock: &v.owner, LoggedWrite: stm.LoggedWrite{VarID: v.id, Value: ents[i].Val}})
	}
	return dst
}

// Validate implements mvutil.Member: TWM's predicate over the multi-version
// conflict order — HANDLEWRITE's stamp check, HANDLEREAD and Rules 1-2 — run
// with every write lock held and N(tx) drawn.
func (tx *txn) Validate() stm.AbortReason {
	tm := tx.tm
	tx.natOrder = tx.Draw
	// Some transaction concurrent with tx read a variable tx is about to
	// overwrite: tx is the target of an anti-dependency. (The paper checks >=
	// with stamps taken before the stamper's clock increment; ours are taken
	// after it, so the strict inequality is the same condition: a reader
	// stamped at or below our start serializes at or below it, while any
	// time-warp destination of ours exceeds start.)
	ents := tx.writeSet.Entries()
	for i := range ents {
		if ents[i].Key.stamp.Load() > tx.start {
			tx.target = true
			break
		}
	}
	// From here on no read stamp can change this commit's fate, and every
	// variable it writes stays locked until its versions are in: a read-only
	// transaction that begins now needs no stamps on its account (Begin).
	tm.Active.Settle(&tx.Slot)

	// HANDLEREAD: make the reads visible, then detect anti-dependencies
	// originating at tx (versions of read variables committed after start).
	// The stamp is our own draw, not a fresh clock sample: under the strict
	// target check that is the paper's pre-increment condition exactly, and
	// it keeps the scan off the clock line. Every committer with a smaller
	// order held its write locks when it drew, so the lock wait orders this
	// traversal behind its installs.
	budget := tm.Opts.LockSpinBudget
	for _, v := range tx.readSet {
		tx.semiVisibleRead(v, tx.natOrder)
		if !v.owner.WaitUnlocked(&tx.Desc, budget) {
			return stm.ReasonLockTimeout
		}
		ver := v.latest.Load()
		for ver.natOrder > tx.start {
			switch {
			case tm.notw:
				// Ablation: classic validation rejects any stale read.
				return stm.ReasonReadConflict
			case ver.timeWarped():
				// Rule 2: the writer time-warp committed; if tx committed
				// now the writer would become a time-warping pivot (and if
				// the writer serialized after us in N, its warp destination
				// is unordered against ours).
				return stm.ReasonTimeWarpSkip
			case ver.natOrder < tx.natOrder:
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
		}
	}

	// Rule 2: tx may not become a time-warping pivot.
	if tx.target && tx.source {
		return stm.ReasonTriad
	}
	// Rule 1: time-warp commit before every missed writer, if any.
	tx.twOrder = tx.natOrder
	if tx.minAntiDep != 0 {
		tx.twOrder = tx.minAntiDep
	}
	tx.Serial = tx.twOrder
	return stm.ReasonNone
}

// Install implements mvutil.Member (paper's CREATENEWVERSION per write).
func (tx *txn) Install() {
	ents := tx.writeSet.Entries()
	for i := range ents {
		tx.tm.createNewVersion(tx, ents[i].Key, ents[i].Val)
	}
}

// createNewVersion inserts tx's write to v in descending twOrder. On a
// time-warp clash (equal twOrder) the insertion is skipped: clashing
// transactions serialize in inverse natural order, so the version of the
// earliest natural committer — which, holding the commit lock, necessarily
// inserted first — is the one later transactions must not shadow.
//
// The walk stops above the chain's end: twOrder exceeds the start of tx, and
// the oldest retained version is visible at a collector bound no greater than
// that start.
func (tm *TM) createNewVersion(tx *txn, v *twvar, val stm.Value) {
	var newer *version
	older := v.latest.Load()
	for tx.twOrder < older.twOrder {
		newer = older
		older = older.next.Load()
	}
	if tx.twOrder == older.twOrder {
		// A clash: no transaction will ever read this value (see above).
		v.hist.Append(stm.VersionRecord{Value: val, Serial: tx.twOrder, Tie: tx.natOrder, Elided: true})
		return
	}
	ver := &version{value: val, natOrder: tx.natOrder, twOrder: tx.twOrder}
	ver.next.Store(older)
	if newer == nil {
		v.latest.Store(ver)
	} else {
		newer.next.Store(ver)
	}
	v.hist.Append(stm.VersionRecord{Value: val, Serial: tx.twOrder, Tie: tx.natOrder})
}
