// Package avstm implements an interval-based, abort-avoiding STM in the style
// of AVSTM (Guerraoui, Henzinger and Singh, DISC 2008), the (probabilistically)
// permissive baseline of the TWM paper's evaluation.
//
// Every transaction carries a validity interval (lb, ub) of serialization
// points, initially (0, +inf):
//
//   - reading a variable raises lb to the serialization point of its last
//     writer (wts) — the reader must come after that writer;
//   - overwriting a variable raises lb to max(wts, rts), where rts is the
//     largest serialization point of a committed reader — the writer must
//     come after the last writer and after every committed reader that missed
//     it;
//   - a committing writer clamps the ub of every still-active reader of the
//     variables it overwrites down to its own serialization point — those
//     readers missed the write and must serialize before it.
//
// A transaction commits by picking the lowest free point of its interval
// (p = lb+1) — possibly far in the "past" relative to later wall-clock
// commits, which is what lets interval STMs accept histories that classic
// validation rejects. It aborts only when its interval empties, so aborts
// correspond to genuine serializability violations (plus timestamp-granularity
// corner cases): this engine has the lowest abort rates of the baselines,
// matching Table 2 of the paper.
//
// Reads are fully visible (per-variable reader lists), and every commit
// runs under one global mutex, inside which a writer walks the reader
// list of each written variable. Both costs — visible reads and a commit
// procedure that touches the metadata of every concurrent reader and
// serializes committers — reproduce the overhead profile §5.2 of the TWM
// paper measures for AVSTM (most expensive commits at high thread counts).
// Unlike TWM, read-only transactions can abort (no mv-permissiveness): with a
// single version there is nothing older to read once the interval empties.
//
// Also unlike TWM (which guarantees Virtual World Consistency), this engine is
// only probabilistically opaque, as the original: a transaction doomed to
// abort can briefly observe an inconsistent pair of values in the window
// between its own interval check and a concurrent committer's clamp; the
// inconsistency is always caught at (or before) commit, so committed
// transactions remain serializable. The conformance suite therefore runs this
// engine with stmtest.Options.NotOpaque.
package avstm

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/stm"
)

const noUpperBound = math.MaxUint64

// pointGap is the spacing a committer leaves above its lower bound when its
// interval is unbounded. Serialization points are integers standing in for
// reals; the gap leaves room for ~20 levels of nested "commit in the past"
// between any two adjacent committed points (each level halves the remaining
// sub-interval).
const pointGap = 1 << 20

// choosePoint picks a serialization point strictly inside (lb, ub), or
// reports failure when the integer interval is empty.
func choosePoint(lb, ub uint64) (uint64, bool) {
	if ub == noUpperBound {
		return lb + pointGap, true
	}
	p := lb + pointGap
	if p >= ub {
		p = lb + (ub-lb)/2 // midpoint; equals lb when ub == lb+1
	}
	return p, p > lb && p < ub
}

// TM is an AVSTM instance.
type TM struct {
	commitMu sync.Mutex // serializes commit finalization (see package doc)
	stats    stm.Stats

	// txns pools transaction descriptors across attempts; see Recycle.
	txns sync.Pool

	varID   atomic.Uint64
	history atomic.Bool
}

// New returns an AVSTM instance.
func New() *TM {
	tm := &TM{}
	tm.txns.New = func() any { return &txn{tm: tm, stats: tm.stats.Shard()} }
	return tm
}

// Name implements stm.TM.
func (tm *TM) Name() string { return "avstm" }

// Stats implements stm.TM.
func (tm *TM) Stats() *stm.Stats { return &tm.stats }

// avar is the transactional variable: a single version plus timestamps and
// the visible-reader list (registry.go).
type avar struct {
	id      uint64
	mu      sync.Mutex // guards value, wts, rts, readers
	value   stm.Value
	wts     uint64          // serialization point of the last writer
	rts     uint64          // max serialization point of committed readers
	readers *readerNode     // registered active readers
	hist    *stm.VersionLog // non-nil only when history recording is enabled
}

// NewVar implements stm.TM.
func (tm *TM) NewVar(initial stm.Value) stm.Var {
	v := &avar{id: tm.varID.Add(1), value: initial}
	if tm.history.Load() {
		v.hist = new(stm.VersionLog)
	}
	return v
}

// txn is an AVSTM transaction. Descriptors are pooled (see Recycle); reuse
// is safe against stale clamps because deregister acquires every joined
// variable's mutex, ordering it after any in-flight clampUB from a committer
// that found this transaction in a reader list.
type txn struct {
	tm       *TM
	stats    *stm.StatShard // striped counters; assigned once per descriptor
	readOnly bool

	mu   sync.Mutex // protects lb, ub, done against concurrent clamps
	lb   uint64     // exclusive lower bound of the validity interval
	ub   uint64     // exclusive upper bound; noUpperBound = +inf
	done bool       // finalized: clamps are no-ops

	free *readerNode // pooled reader-list nodes (registry.go)

	readSet  []*readerNode // one registration per read variable
	writeSet stm.WriteSet[*avar]

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
	// No lock needed: the descriptor is not registered in any reader
	// list, so nothing can clamp it yet (pool New leaves ub zero).
	tx.lb, tx.ub, tx.done = 0, noUpperBound, false
	tx.stats.RecordStart()
	return tx
}

// Recycle implements stm.TxRecycler: reset the descriptor and return it to
// the pool. Only stm.Atomically calls this, after an attempt has fully
// finished (every finish path has already deregistered, so readSet is empty;
// the reset clears the stale backing array so pooled descriptors do not pin
// dead variables).
func (tm *TM) Recycle(txi stm.Tx) {
	tx, ok := txi.(*txn)
	if !ok {
		return
	}
	tx.readSet = stm.ResetVarSlice(tx.readSet)
	tx.writeSet.Reset()
	tx.lastReason = stm.ReasonNone
	tm.txns.Put(tx)
}

// clampUB lowers the transaction's upper bound to p. Callers hold the global
// commit mutex, so a finalized transaction has already fixed a point strictly
// below p and is rightly immune.
func (tx *txn) clampUB(p uint64) {
	tx.mu.Lock()
	if !tx.done && p < tx.ub {
		tx.ub = p
	}
	tx.mu.Unlock()
}

// raiseLB raises the lower bound and reports whether the interval still
// contains an integer point (lb+1 < ub+1, i.e. lb+1 <= ub-… : p=lb+1 must be
// strictly below ub).
func (tx *txn) raiseLB(w uint64) bool {
	tx.mu.Lock()
	if w > tx.lb {
		tx.lb = w
	}
	ok := tx.lb+1 < tx.ub || tx.ub == noUpperBound
	tx.mu.Unlock()
	return ok
}

// Read implements stm.Tx: a visible read. The reader registers itself in the
// variable's reader list, raises its lower bound to the writer's point and
// aborts early if its interval emptied.
func (tx *txn) Read(v stm.Var) stm.Value {
	tv := v.(*avar)
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
	// Register and load in one critical section (see registry.go).
	tv.mu.Lock()
	n := tv.register(tx)
	val := tv.value
	wts := tv.wts
	tv.mu.Unlock()
	if n != nil {
		tx.readSet = append(tx.readSet, n)
	}
	ok := tx.raiseLB(wts)
	if prof != nil {
		prof.AddRead(prof.Now() - t0)
	}
	if !ok {
		tx.stats.RecordAbort(stm.ReasonIntervalEmpty)
		tx.deregister()
		stm.Retry(stm.ReasonIntervalEmpty)
	}
	return val
}

// Write implements stm.Tx.
func (tx *txn) Write(v stm.Var, val stm.Value) {
	if tx.readOnly {
		panic("avstm: Write on a read-only transaction")
	}
	tx.writeSet.Put(v.(*avar), val)
}

// deregister removes the transaction from every reader list it joined,
// returning the nodes to the descriptor's pool.
func (tx *txn) deregister() {
	for _, n := range tx.readSet {
		v := n.v
		v.mu.Lock()
		v.unlink(n)
		v.mu.Unlock()
		tx.freeNode(n)
	}
	tx.readSet = tx.readSet[:0]
}

// commitReads records p as a committed read of every variable tx read (rts)
// and leaves their reader lists.
func (tx *txn) commitReads(p uint64) {
	for _, n := range tx.readSet {
		v := n.v
		v.mu.Lock()
		if p > v.rts {
			v.rts = p
		}
		v.unlink(n)
		v.mu.Unlock()
		tx.freeNode(n)
	}
	tx.readSet = tx.readSet[:0]
}

// Abort implements stm.TM.
func (tm *TM) Abort(txi stm.Tx) {
	tx := txi.(*txn)
	tx.mu.Lock()
	tx.done = true
	tx.mu.Unlock()
	tx.deregister()
}

// Commit implements stm.TM. All finalization runs under the global commit
// mutex, making the choice of serialization points atomic: while a committer
// holds the mutex no other transaction can finalize or clamp, so the interval
// it checks is exact.
//
// Conflicting transactions always end up with strictly ordered points (wr and
// ww edges through wts, committed-reader rw edges through rts, active-reader
// rw edges through ub clamps); unrelated transactions may share a point,
// which is harmless because any serial order among them is equivalent.
func (tm *TM) Commit(txi stm.Tx) bool {
	tx := txi.(*txn)
	prof := tm.stats.Profiler()
	var t0 int64
	if prof != nil {
		t0 = prof.Now()
		defer prof.AddTx()
	}

	tm.commitMu.Lock()

	if tx.readOnly || tx.writeSet.Len() == 0 {
		// Serialize inside (lb, ub): every read value was written at or
		// below lb and not overwritten below ub > p.
		p, ok := choosePoint(tx.lb, tx.ub)
		tx.mu.Lock()
		tx.done = true
		tx.mu.Unlock()
		if ok {
			tx.commitReads(p)
		}
		tm.commitMu.Unlock()
		if !ok {
			tx.deregister()
			tx.stats.RecordAbort(stm.ReasonIntervalEmpty)
			tx.lastReason = stm.ReasonIntervalEmpty
			if prof != nil {
				prof.AddReadSetVal(prof.Now() - t0)
			}
			return false
		}
		tx.stats.RecordCommit(tx.readOnly)
		if prof != nil {
			prof.AddCommit(prof.Now() - t0)
		}
		return true
	}

	// Writer: serialize after every previous writer and committed reader of
	// the write set.
	lbOK := true
	ents := tx.writeSet.Entries()
	for i := range ents {
		v := ents[i].Key
		v.mu.Lock()
		w := v.wts
		if v.rts > w {
			w = v.rts
		}
		v.mu.Unlock()
		if !tx.raiseLB(w) {
			lbOK = false
			break
		}
	}
	p, pOK := choosePoint(tx.lb, tx.ub)
	ok := lbOK && pOK
	tx.mu.Lock()
	tx.done = true
	tx.mu.Unlock()
	if prof != nil {
		now := prof.Now()
		prof.AddReadSetVal(now - t0)
		t0 = now
	}
	if !ok {
		tm.commitMu.Unlock()
		tx.deregister()
		tx.stats.RecordAbort(stm.ReasonIntervalEmpty)
		tx.lastReason = stm.ReasonIntervalEmpty
		return false
	}

	// Publish, and clamp every still-active reader of the variables we
	// overwrite (they read the old value, so they must serialize before p),
	// in one critical section per variable (see registry.go).
	for i := range ents {
		v := ents[i].Key
		v.mu.Lock()
		v.value = ents[i].Val
		v.wts = p
		v.hist.Append(stm.VersionRecord{Value: v.value, Serial: p})
		v.clampReaders(tx, p)
		v.mu.Unlock()
	}
	if prof != nil {
		now := prof.Now()
		prof.AddWriteSetVal(now - t0)
		t0 = now
	}

	// Record our point as a committed read of everything we read.
	tx.commitReads(p)

	tm.commitMu.Unlock()
	if prof != nil {
		prof.AddCommit(prof.Now() - t0)
	}
	tx.stats.RecordCommit(false)
	return true
}

// EnableHistory implements stm.HistoryRecording. It must be called before any
// variable is created.
func (tm *TM) EnableHistory() { tm.history.Store(true) }

// History implements stm.HistoryRecording. Serial points can repeat across
// different variables but are strictly increasing per variable (each writer
// serializes strictly after the previous one).
func (tm *TM) History(v stm.Var) []stm.VersionRecord { return v.(*avar).hist.Records() }
