// Package jvstm implements a JVSTM-style multi-version STM (Fernandes and
// Cachopo, PPoPP 2011) over the common stm API: per-variable version lists
// ordered by a global commit clock, classic commit-time validation for update
// transactions, and abort-free read-only transactions (mv-permissiveness for
// readers). It is the multi-version baseline of the TWM paper's evaluation.
//
// The original JVSTM uses a lock-free commit; as with the TWM prototype, that
// concern is orthogonal to what the paper measures here (version maintenance
// cost and the classic validation rule), so commit runs through the same
// lock-based pipeline as internal/core (mvutil.Chassis) for a like-for-like
// comparison: the two engines differ only in their version chains and in the
// predicate they validate with.
package jvstm

import (
	"sync"
	"sync/atomic"

	"repro/internal/mvutil"
	"repro/internal/stm"
)

// Options tunes a JVSTM instance: exactly the settings shared by the
// multi-version engines. The zero value uses defaults. JVSTM never
// time-warps, so its commit records carry Tie == Serial (== the write
// version).
type Options = mvutil.Options

// TM is a JVSTM instance.
type TM struct {
	// Chassis is the machinery shared with internal/core: commit clock,
	// active set, GC schedule, logger and the commit pipeline.
	mvutil.Chassis
	stats stm.Stats

	// txns pools transaction descriptors across attempts; see Recycle.
	txns sync.Pool

	// dirty is the collector's work list (sweep).
	dirty   mvutil.Dirty[*jvar]
	history atomic.Bool
}

// New returns a JVSTM instance.
func New(opts Options) *TM {
	tm := &TM{}
	tm.Init(opts, &tm.stats, tm.sweep)
	tm.txns.New = func() any {
		tx := &txn{tm: tm}
		tm.InitDesc(&tx.Desc, tx)
		return tx
	}
	return tm
}

// Name implements stm.TM.
func (tm *TM) Name() string { return "jvstm" }

// Stats implements stm.TM.
func (tm *TM) Stats() *stm.Stats { return &tm.stats }

// jversion is one committed value (a JVSTM "body").
type jversion struct {
	value stm.Value
	ver   uint64
	next  atomic.Pointer[jversion]
}

// jvar is the transactional variable (a VBox). What every read loads — lock
// word and chain head — leads it: the variable is in the 48-byte size class,
// whose objects start 16-byte aligned, so those 16 bytes never straddle a
// line (DESIGN.md §12.4).
type jvar struct {
	owner mvutil.Lock // commit lock
	head  atomic.Pointer[jversion]
	id    uint64
	hist  *stm.VersionLog // non-nil only when history recording is enabled
	// queued marks v as in the TM's dirty queue: set by the install that
	// gives v a second version, cleared by the pass that finds it back to one
	// (mvutil.Dirty). Guarded by owner.
	queued bool
}

// VarID implements stm.IDedVar (commit-lock ordering).
func (v *jvar) VarID() uint64 { return v.id }

// NewVar implements stm.TM.
func (tm *TM) NewVar(initial stm.Value) stm.Var {
	v := &jvar{}
	v.head.Store(&jversion{value: initial})
	if tm.history.Load() {
		v.hist = new(stm.VersionLog)
	}
	v.id = tm.NewVarID()
	return v
}

// txn is a JVSTM transaction. Descriptors are pooled (see Recycle); the
// slices keep their backing arrays across reuse.
type txn struct {
	// Desc is the header shared with internal/core: counters, active-set
	// slot and the commit pipeline's per-commit state. It is also the identity that owns commit locks.
	mvutil.Desc
	tm       *TM
	readOnly bool
	start    uint64

	readSet  []*jvar
	writeSet stm.WriteSet[*jvar]
}

// ReadOnly implements stm.Tx.
func (tx *txn) ReadOnly() bool { return tx.readOnly }

// Begin implements stm.TM; see mvutil.Chassis.Snapshot.
func (tm *TM) Begin(readOnly bool) stm.Tx {
	tx := tm.txns.Get().(*txn)
	tx.readOnly = readOnly
	tx.Stats.RecordStart()
	tx.start = tm.Snapshot(&tx.Desc, !readOnly)
	return tx
}

// Recycle implements stm.TxRecycler: reset the descriptor and return it to
// the pool. Only stm.Atomically calls this, after an attempt has fully
// finished; manual Begin/Commit users never recycle.
func (tm *TM) Recycle(txi stm.Tx) {
	tx, ok := txi.(*txn)
	if !ok {
		return
	}
	tx.Reset()
	tx.readSet = stm.ResetVarSlice(tx.readSet)
	tx.writeSet.Reset()
	tx.start = 0
	tm.txns.Put(tx)
}

// Read implements stm.Tx: multi-version reads never conflict-abort — the
// transaction walks back to the newest version at or before its snapshot.
//
// The read must first wait out a committer holding the variable's lock: a
// transaction that began after the committer drew its version number (so the
// new version belongs in this snapshot) could otherwise read the stale head
// while the committer is still publishing. The committer holds the lock from
// before its clock increment until after the insertion, so waiting here
// closes that window; readers hold no locks, so the wait always terminates.
func (tx *txn) Read(v stm.Var) stm.Value {
	tv := v.(*jvar)
	prof := tx.tm.stats.Profiler()
	var t0 int64
	if prof != nil {
		t0 = prof.Now()
	}
	if !tx.readOnly {
		if val, ok := tx.writeSet.Get(tv); ok {
			if prof != nil {
				prof.AddRead(prof.Now() - t0)
			}
			return val
		}
		tx.readSet = append(tx.readSet, tv)
	}
	tv.owner.WaitUnlocked(nil, -1)
	ver := tv.head.Load()
	for ver.ver > tx.start {
		ver = ver.next.Load()
	}
	if prof != nil {
		prof.AddRead(prof.Now() - t0)
	}
	return ver.value
}

// Write implements stm.Tx.
func (tx *txn) Write(v stm.Var, val stm.Value) {
	if tx.readOnly {
		panic("jvstm: Write on a read-only transaction")
	}
	tx.writeSet.Put(v.(*jvar), val)
}

// Abort implements stm.TM. No commit lock outlives CommitUpdate, so there is
// none to release here.
func (tm *TM) Abort(txi stm.Tx) {
	tm.Active.Unregister(&txi.(*txn).Slot)
}

// Commit implements stm.TM: lock the write set, classic validation of the
// read set ("commit in the present"), publish versions at the drawn clock
// value — the stages are the shared pipeline's (mvutil.Chassis.CommitUpdate).
func (tm *TM) Commit(txi stm.Tx) bool {
	tx := txi.(*txn)
	defer tm.Active.Unregister(&tx.Slot)
	if tx.readOnly || tx.writeSet.Len() == 0 {
		tx.Stats.RecordCommit(tx.readOnly)
		return true
	}
	return tm.CommitUpdate(&tx.Desc)
}

// Writes implements mvutil.Member. Lookups are over: the entries are sorted
// in place by id without sort.Slice's closure allocations.
func (tx *txn) Writes(dst []mvutil.WriteRef) []mvutil.WriteRef {
	ents := tx.writeSet.Entries()
	stm.SortEntriesByID(ents)
	for i := range ents {
		v := ents[i].Key
		dst = append(dst, mvutil.WriteRef{Lock: &v.owner, LoggedWrite: stm.LoggedWrite{VarID: v.id, Value: ents[i].Val}})
	}
	return dst
}

// Validate implements mvutil.Member: JVSTM's predicate over the multi-version
// conflict order is the classic rule — abort if any read variable has a
// version newer than the snapshot. A committer holding a lock on a read
// variable is waited out (bounded) so a stable head is validated.
//
// The wv == snap+1 shortcut (TL2's rv+1 rule): our draw directly followed the
// clock value we began at, so every other committer drew either at or below
// the snapshot — its publications are inside it, and the read barrier already
// waited those out — or above wv, in which case it serializes after us and
// cannot have produced a version our reads missed. Nothing remains to
// validate.
func (tx *txn) Validate() stm.AbortReason {
	tx.Serial = tx.Draw
	if tx.Draw == tx.start+1 {
		return stm.ReasonNone
	}
	budget := tx.tm.Opts.LockSpinBudget
	for _, v := range tx.readSet {
		if !v.owner.WaitUnlocked(&tx.Desc, budget) {
			return stm.ReasonLockTimeout
		}
		if v.head.Load().ver > tx.start {
			return stm.ReasonReadConflict
		}
	}
	return stm.ReasonNone
}

// Install implements mvutil.Member: push the new versions at the heads.
func (tx *txn) Install() {
	ents := tx.writeSet.Entries()
	for i := range ents {
		v, val := ents[i].Key, ents[i].Val
		nv := &jversion{value: val, ver: tx.Draw}
		nv.next.Store(v.head.Load())
		v.head.Store(nv)
		v.hist.Append(stm.VersionRecord{Value: val, Serial: tx.Draw})
		if !v.queued {
			v.queued = true
			tx.tm.dirty.Add(v)
		}
	}
}

// sweep is the chain pass behind mvutil.Chassis, as in internal/core but
// with the single (natural) time line and no embedded root; gcMu is held. It
// drains the dirty queue (mvutil.Dirty), freeing per queued variable
// everything older than the newest version visible at bound; a variable back
// to one version leaves the queue.
func (tm *TM) sweep(bound uint64) (freed int) {
	tm.dirty.Drain(func(v *jvar) bool {
		// Nothing to free yet: leave the lock word alone.
		head := v.head.Load()
		if ver := visibleAt(head, bound); ver != head && ver.next.Load() == nil {
			return true
		}
		if !v.owner.TryLockGC() {
			return true // busy committer; the next pass will get it
		}
		defer v.owner.UnlockGC()
		head = v.head.Load()
		ver := visibleAt(head, bound)
		for tail := ver.next.Load(); tail != nil; tail = tail.next.Load() {
			freed++
		}
		ver.next.Store(nil)
		if ver == head {
			v.queued = false
			return false
		}
		return true
	})
	return freed
}

// visibleAt returns the newest version at head visible at bound, or the
// oldest retained if an earlier pass cut higher (as in internal/core).
func visibleAt(head *jversion, bound uint64) *jversion {
	ver := head
	for ver.ver > bound {
		next := ver.next.Load()
		if next == nil {
			break
		}
		ver = next
	}
	return ver
}

// VersionCount returns the live version count of v (tests).
func (tm *TM) VersionCount(v stm.Var) int {
	n := 0
	for ver := v.(*jvar).head.Load(); ver != nil; ver = ver.next.Load() {
		n++
	}
	return n
}

// EnableHistory implements stm.HistoryRecording. It must be called before any
// variable is created.
func (tm *TM) EnableHistory() { tm.history.Store(true) }

// History implements stm.HistoryRecording: versions in commit (serialization)
// order.
func (tm *TM) History(v stm.Var) []stm.VersionRecord { return v.(*jvar).hist.Records() }
