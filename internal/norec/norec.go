// Package norec implements the NOrec algorithm of Dalessandro, Spear and
// Scott (PPoPP 2010) over the common stm API: a single-version STM whose only
// shared metadata is one global sequence lock, with value-based validation.
// It is the minimal-metadata baseline of the TWM paper's evaluation (§5):
// cheapest at low thread counts, collapsing under concurrent committers
// because writers serialize on the global lock and every clock change forces
// readers to revalidate their read sets by value.
//
// NOrec requires the values stored in transactional variables to be
// comparable with ==; every workload in this repository satisfies that.
package norec

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/stm"
)

// TM is a NOrec instance.
type TM struct {
	// seq is the global sequence lock: odd while a writer is writing back,
	// even otherwise. seq/2 is the "version" of the whole memory.
	seq   atomic.Uint64
	stats stm.Stats

	// txns pools transaction descriptors across attempts; see Recycle.
	txns sync.Pool

	varID   atomic.Uint64
	history atomic.Bool
}

// New returns a NOrec instance.
func New() *TM {
	tm := &TM{}
	tm.txns.New = func() any { return &txn{tm: tm, stats: tm.stats.Shard()} }
	return tm
}

// Name implements stm.TM.
func (tm *TM) Name() string { return "norec" }

// Stats implements stm.TM.
func (tm *TM) Stats() *stm.Stats { return &tm.stats }

// nvar carries no per-variable metadata beyond the value cell — the defining
// property of NOrec ("no ownership records").
type nvar struct {
	id   uint64
	val  atomic.Pointer[stm.Value]
	hist *stm.VersionLog // non-nil only when history recording is enabled
}

// NewVar implements stm.TM.
func (tm *TM) NewVar(initial stm.Value) stm.Var {
	v := &nvar{id: tm.varID.Add(1)}
	v.val.Store(&initial)
	if tm.history.Load() {
		v.hist = new(stm.VersionLog)
	}
	return v
}

// readEntry records one read for value-based validation.
type readEntry struct {
	v   *nvar
	val stm.Value
}

// txn is a NOrec transaction. Descriptors are pooled (see Recycle); the
// read- and write-set backing arrays survive reuse.
type txn struct {
	tm       *TM
	stats    *stm.StatShard // striped counters; assigned once per descriptor
	readOnly bool
	snapshot uint64

	readSet  []readEntry
	writeSet stm.WriteSet[*nvar]

	lastReason stm.AbortReason // why the last Commit returned false
}

// ReadOnly implements stm.Tx.
func (tx *txn) ReadOnly() bool { return tx.readOnly }

// LastAbortReason implements stm.AbortReasoner: the reason of the most recent
// commit-time abort (read-path aborts travel in the retry signal).
func (tx *txn) LastAbortReason() stm.AbortReason { return tx.lastReason }

// Begin implements stm.TM.
func (tm *TM) Begin(readOnly bool) stm.Tx {
	tx := tm.txns.Get().(*txn)
	tx.readOnly = readOnly
	tx.snapshot = tm.waitEven()
	tx.stats.RecordStart()
	return tx
}

// Recycle implements stm.TxRecycler: reset the descriptor and return it to
// the pool. Only stm.Atomically calls this, after an attempt has fully
// finished; manual Begin/Commit users never recycle. readSet entries hold
// interface values, so the reset clears them through capacity to avoid
// keeping dead objects alive from the pool.
func (tm *TM) Recycle(txi stm.Tx) {
	tx, ok := txi.(*txn)
	if !ok {
		return
	}
	tx.readSet = stm.ResetVarSlice(tx.readSet)
	tx.writeSet.Reset()
	tx.snapshot = 0
	tx.lastReason = stm.ReasonNone
	tm.txns.Put(tx)
}

// waitEven spins until the sequence lock is free and returns its value.
func (tm *TM) waitEven() uint64 {
	for {
		s := tm.seq.Load()
		if s&1 == 0 {
			return s
		}
		runtime.Gosched()
	}
}

// Read implements stm.Tx. Unlike the paper's ownership-record designs, a read
// costs one pointer load; consistency is re-established by revalidating the
// whole read set whenever the global clock moved.
func (tx *txn) Read(v stm.Var) stm.Value {
	tv := v.(*nvar)
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
	val := *tv.val.Load()
	for tx.tm.seq.Load() != tx.snapshot {
		if !tx.validate() {
			tx.stats.RecordAbort(stm.ReasonReadConflict)
			stm.Retry(stm.ReasonReadConflict)
		}
		val = *tv.val.Load()
	}
	tx.readSet = append(tx.readSet, readEntry{v: tv, val: val})
	if prof != nil {
		prof.AddRead(prof.Now() - t0)
	}
	return val
}

// validate is NOrec's value-based validation: it re-reads every read-set
// entry against a consistent (even) clock sample and compares values. On
// success the snapshot advances to that sample; false means a value changed
// and the transaction must abort.
func (tx *txn) validate() bool {
	prof := tx.tm.stats.Profiler()
	var t0 int64
	if prof != nil {
		t0 = prof.Now()
	}
	for {
		s := tx.tm.waitEven()
		ok := true
		for _, e := range tx.readSet {
			if *e.v.val.Load() != e.val {
				ok = false
				break
			}
		}
		if tx.tm.seq.Load() != s {
			continue // a writer slipped in during validation; retry
		}
		if prof != nil {
			prof.AddReadSetVal(prof.Now() - t0)
		}
		if ok {
			tx.snapshot = s
		}
		return ok
	}
}

// Write implements stm.Tx.
func (tx *txn) Write(v stm.Var, val stm.Value) {
	if tx.readOnly {
		panic("norec: Write on a read-only transaction")
	}
	tx.writeSet.Put(v.(*nvar), val)
}

// Abort implements stm.TM. NOrec transactions hold no resources mid-flight.
func (tm *TM) Abort(stm.Tx) {}

// Commit implements stm.TM.
func (tm *TM) Commit(txi stm.Tx) bool {
	tx := txi.(*txn)
	if tx.readOnly || tx.writeSet.Len() == 0 {
		// Reads were kept individually consistent with the snapshot, which
		// is a committed memory state: nothing to validate.
		tx.stats.RecordCommit(tx.readOnly)
		return true
	}
	prof := tm.stats.Profiler()
	var t0 int64
	if prof != nil {
		t0 = prof.Now()
		defer prof.AddTx()
	}

	// Acquire the global sequence lock from our snapshot; every failure
	// means the clock moved, requiring value-based revalidation first.
	for !tm.seq.CompareAndSwap(tx.snapshot, tx.snapshot+1) {
		if !tx.validate() {
			tx.stats.RecordAbort(stm.ReasonReadConflict)
			tx.lastReason = stm.ReasonReadConflict
			return false
		}
	}
	if prof != nil {
		now := prof.Now()
		prof.AddCommit(now - t0)
		t0 = now
	}
	ents := tx.writeSet.Entries()
	for i := range ents {
		v, val := ents[i].Key, ents[i].Val
		v.val.Store(&val)
		v.hist.Append(stm.VersionRecord{Value: val, Serial: tx.snapshot + 2})
	}
	tm.seq.Store(tx.snapshot + 2)
	if prof != nil {
		prof.AddCommit(prof.Now() - t0)
	}
	tx.stats.RecordCommit(false)
	return true
}

// EnableHistory implements stm.HistoryRecording. It must be called before any
// variable is created.
func (tm *TM) EnableHistory() { tm.history.Store(true) }

// History implements stm.HistoryRecording: versions in commit (serialization)
// order.
func (tm *TM) History(v stm.Var) []stm.VersionRecord { return v.(*nvar).hist.Records() }
