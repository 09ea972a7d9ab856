// Package tl2 implements the Transactional Locking II algorithm of Dice,
// Shalev and Shavit (DISC 2006) over the common stm API: a single-version STM
// with a global version clock and per-variable versioned write locks, using
// the classic validation rule ("commit in the present"). It is one of the two
// single-thread-efficient baselines of the TWM paper's evaluation (§5).
//
// Transactions sample a read version rv at begin. Reads are consistent if the
// variable is unlocked and its version is at most rv (sandwich check). Commit
// locks the write set in id order, increments the clock to obtain the write
// version wv, validates the read set (unlocked-or-mine, version <= rv) and
// publishes values at version wv. Read-only transactions keep no read set and
// need no commit-time validation (each read is individually consistent at rv),
// matching the methodology note in the paper's §5.
package tl2

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/stm"
)

// lockSpinBudget bounds spinning on a peer's write lock before aborting.
const lockSpinBudget = 512

// TM is a TL2 instance.
type TM struct {
	clock atomic.Uint64
	stats stm.Stats

	// txns pools transaction descriptors across attempts; see Recycle.
	txns sync.Pool

	varID   atomic.Uint64
	history atomic.Bool
}

// New returns a TL2 instance.
func New() *TM {
	tm := &TM{}
	tm.clock.Store(1)
	tm.txns.New = func() any { return &txn{tm: tm, stats: tm.stats.Shard()} }
	return tm
}

// Name implements stm.TM.
func (tm *TM) Name() string { return "tl2" }

// Stats implements stm.TM.
func (tm *TM) Stats() *stm.Stats { return &tm.stats }

// tlvar packs the versioned lock (version<<1 | lockbit) and the value. The
// value pointer is only replaced while the lock bit is held, and readers
// sandwich the value load between two meta loads.
type tlvar struct {
	id   uint64
	meta atomic.Uint64
	val  atomic.Pointer[stm.Value]
	hist *stm.VersionLog // non-nil only when history recording is enabled
}

// VarID implements stm.IDedVar (commit-lock ordering).
func (v *tlvar) VarID() uint64 { return v.id }

const lockBit = 1

func metaVersion(m uint64) uint64 { return m >> 1 }
func metaLocked(m uint64) bool    { return m&lockBit != 0 }

// NewVar implements stm.TM.
func (tm *TM) NewVar(initial stm.Value) stm.Var {
	v := &tlvar{id: tm.varID.Add(1)}
	v.val.Store(&initial)
	if tm.history.Load() {
		v.hist = new(stm.VersionLog)
	}
	return v
}

// txn is a TL2 transaction. Descriptors are pooled (see Recycle); the slices
// keep their backing arrays across reuse.
type txn struct {
	tm       *TM
	stats    *stm.StatShard // striped counters; assigned once per descriptor
	readOnly bool
	rv       uint64

	readSet  []*tlvar
	writeSet stm.WriteSet[*tlvar]
	locked   []*tlvar

	lastReason stm.AbortReason // why the last Commit returned false
}

// ReadOnly implements stm.Tx.
func (tx *txn) ReadOnly() bool { return tx.readOnly }

// LastAbortReason implements stm.AbortReasoner: the reason of the most recent
// commit-time abort (read-path aborts travel in the retry signal).
func (tx *txn) LastAbortReason() stm.AbortReason { return tx.lastReason }

// failCommit records a commit-time abort with its reason, releases held locks
// and reports failure.
func (tx *txn) failCommit(reason stm.AbortReason) bool {
	tx.releaseLocks()
	tx.stats.RecordAbort(reason)
	tx.lastReason = reason
	return false
}

// Begin implements stm.TM.
func (tm *TM) Begin(readOnly bool) stm.Tx {
	tx := tm.txns.Get().(*txn)
	tx.readOnly = readOnly
	tx.rv = tm.clock.Load()
	tx.stats.RecordStart()
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
	tx.readSet = stm.ResetVarSlice(tx.readSet)
	tx.writeSet.Reset()
	tx.locked = stm.ResetVarSlice(tx.locked)
	tx.rv = 0
	tx.lastReason = stm.ReasonNone
	tm.txns.Put(tx)
}

// Read implements stm.Tx: the TL2 read barrier with the pre/post sandwich.
func (tx *txn) Read(v stm.Var) stm.Value {
	tv := v.(*tlvar)
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
	}
	for spins := 0; ; spins++ {
		m1 := tv.meta.Load()
		if !metaLocked(m1) {
			val := *tv.val.Load()
			if tv.meta.Load() == m1 {
				if metaVersion(m1) > tx.rv {
					// The variable changed after our snapshot: classic
					// validation admits no extension, abort.
					tx.stats.RecordAbort(stm.ReasonReadConflict)
					stm.Retry(stm.ReasonReadConflict)
				}
				if !tx.readOnly {
					tx.readSet = append(tx.readSet, tv)
				}
				if prof != nil {
					prof.AddRead(prof.Now() - t0)
				}
				return val
			}
		}
		if spins >= lockSpinBudget {
			tx.stats.RecordAbort(stm.ReasonLockTimeout)
			stm.Retry(stm.ReasonLockTimeout)
		}
		runtime.Gosched()
	}
}

// Write implements stm.Tx.
func (tx *txn) Write(v stm.Var, val stm.Value) {
	if tx.readOnly {
		panic("tl2: Write on a read-only transaction")
	}
	tx.writeSet.Put(v.(*tlvar), val)
}

// Abort implements stm.TM.
func (tm *TM) Abort(txi stm.Tx) {
	tx := txi.(*txn)
	tx.releaseLocks()
}

func (tx *txn) releaseLocks() {
	for _, v := range tx.locked {
		m := v.meta.Load()
		v.meta.Store(m &^ lockBit)
	}
	tx.locked = tx.locked[:0]
}

// lockVar acquires tv's write lock with bounded spinning.
func (tx *txn) lockVar(tv *tlvar) bool {
	for spins := 0; ; spins++ {
		m := tv.meta.Load()
		if !metaLocked(m) {
			if metaVersion(m) > tx.rv {
				return false // already newer than our snapshot: doomed
			}
			if tv.meta.CompareAndSwap(m, m|lockBit) {
				tx.locked = append(tx.locked, tv)
				return true
			}
			continue
		}
		if spins >= lockSpinBudget {
			return false
		}
		runtime.Gosched()
	}
}

// Commit implements stm.TM.
func (tm *TM) Commit(txi stm.Tx) bool {
	tx := txi.(*txn)
	if tx.readOnly || tx.writeSet.Len() == 0 {
		tx.stats.RecordCommit(tx.readOnly)
		return true
	}
	prof := tm.stats.Profiler()
	var t0 int64
	if prof != nil {
		t0 = prof.Now()
		defer prof.AddTx()
	}

	// Lookups are over: sort the write entries in place by id (deadlock
	// avoidance) without sort.Slice's closure allocations.
	ents := tx.writeSet.Entries()
	stm.SortEntriesByID(ents)
	for i := range ents {
		if !tx.lockVar(ents[i].Key) {
			return tx.failCommit(stm.ReasonWriteConflict)
		}
	}

	wv := tm.clock.Add(1) // the write version
	if prof != nil {
		now := prof.Now()
		prof.AddCommit(now - t0) // lock acquisition counts as commit work
		t0 = now
	}

	// Classic read-set validation: every read variable must still be at a
	// version <= rv and not locked by another transaction. The wv == rv+1
	// shortcut (no concurrent committer) is from the original TL2 paper.
	if wv != tx.rv+1 {
		for _, v := range tx.readSet {
			m := v.meta.Load()
			if metaVersion(m) > tx.rv || (metaLocked(m) && !tx.holds(v)) {
				if prof != nil {
					prof.AddReadSetVal(prof.Now() - t0)
				}
				return tx.failCommit(stm.ReasonReadConflict)
			}
		}
	}
	if prof != nil {
		now := prof.Now()
		prof.AddReadSetVal(now - t0)
		t0 = now
	}

	for i := range ents {
		v, val := ents[i].Key, ents[i].Val
		v.val.Store(&val)
		v.hist.Append(stm.VersionRecord{Value: val, Serial: wv})
		v.meta.Store(wv << 1) // publish new version and release the lock
	}
	tx.locked = tx.locked[:0]
	if prof != nil {
		prof.AddCommit(prof.Now() - t0)
	}
	tx.stats.RecordCommit(false)
	return true
}

func (tx *txn) holds(v *tlvar) bool {
	for _, l := range tx.locked {
		if l == v {
			return true
		}
	}
	return false
}

// EnableHistory implements stm.HistoryRecording. It must be called before any
// variable is created.
func (tm *TM) EnableHistory() { tm.history.Store(true) }

// History implements stm.HistoryRecording: versions in commit (serialization)
// order.
func (tm *TM) History(v stm.Var) []stm.VersionRecord { return v.(*tlvar).hist.Records() }
