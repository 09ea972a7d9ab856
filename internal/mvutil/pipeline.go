package mvutil

import (
	"errors"
	"runtime"
	"sync/atomic"

	"repro/internal/stm"
)

// This file is the commit pipeline shared by the multi-version engines: the
// paper's COMMIT (Algorithm 2) as one straight sequence over one descriptor,
//
//	admit → lock → draw → validate → install → log → unlock → durable wait
//	      → resolve → GC tick
//
// with the engine supplying only its validation rule (Member). The safety
// arguments are stated once, at the step they belong to (CommitUpdate), and
// in DESIGN.md §7.

// Member is what an engine's transaction descriptor plugs into the pipeline:
// the two steps of the commit protocol that differ between engines (validate,
// install), plus the projection of its typed write set. Each is called once
// per commit; the per-entry loops inside them are the engine's concrete code.
type Member interface {
	// Writes appends the write set in ascending variable-id order.
	Writes(dst []WriteRef) []WriteRef
	// Validate decides the commit with every write lock held and Desc.Draw
	// assigned: it performs the engine's commit-time reads of shared state
	// (raises, scans), sets Desc.Serial and returns stm.ReasonNone, or
	// returns the abort reason. Lock waits must go through Lock.WaitUnlocked
	// with the member's Desc.
	Validate() stm.AbortReason
	// Install inserts the member's versions (locks still held).
	Install()
}

// WriteRef is one write-set entry as the pipeline sees it: the variable's
// commit lock and what the log records.
type WriteRef struct {
	Lock *Lock
	stm.LoggedWrite
}

// Desc is the descriptor header the engines embed in their pooled transaction
// descriptors: the pipeline's per-commit state and the scratch its log record
// is built in. A *Desc is also the identity that owns commit locks.
type Desc struct {
	Stats *stm.StatShard // striped counters; assigned once per descriptor
	Slot  Slot           // active-set registration, reused across attempts

	// Draw is the natural commit order the draw step assigned (N(tx); the
	// write version for JVSTM). Serial is the serialization key Validate
	// chose (TW(tx); equal to Draw unless the commit time-warped).
	Draw       uint64
	Serial     uint64
	lastReason stm.AbortReason // why the last commit failed
	durErr     error           // the logger's error behind ReasonOutcomeUnknown or ReasonDurability

	m      Member
	writes []WriteRef
	held   int // commit locks held: writes[:held]
	// rec and logWrites back this commit's log record; the logger must not
	// retain them past Append.
	rec       [1]stm.CommitRecord
	logWrites []stm.LoggedWrite
}

// InitDesc wires a freshly allocated descriptor to its engine-side half and
// deals it a counter shard.
func (c *Chassis) InitDesc(d *Desc, m Member) {
	d.m, d.Stats = m, c.stats.Shard()
}

// Reset clears the per-attempt state before the descriptor returns to its
// pool. The scratch keeps its backing arrays.
func (d *Desc) Reset() {
	d.Draw, d.Serial = 0, 0
	d.lastReason = stm.ReasonNone
	d.durErr = nil
	d.writes = stm.ResetVarSlice(d.writes)
	d.rec[0] = stm.CommitRecord{}
	d.logWrites = stm.ResetVarSlice(d.logWrites)
}

// LastAbortReason implements stm.AbortReasoner for the embedding descriptor:
// the reason of the most recent commit-time abort, so the retry loop can
// report it in a *stm.CancelledError (read-path aborts carry their reason in
// the retry signal instead).
func (d *Desc) LastAbortReason() stm.AbortReason { return d.lastReason }

// DurabilityErr is the logger's error behind a commit that failed with
// stm.ReasonOutcomeUnknown or stm.ReasonDurability; the retry loop wraps it
// in a *stm.OutcomeUnknownError or a *stm.LogFailedError.
func (d *Desc) DurabilityErr() error { return d.durErr }

// Lock is a variable's commit lock: nil means unlocked, otherwise the owning
// descriptor (or the garbage collector's sentinel).
type Lock struct{ owner atomic.Pointer[Desc] }

// gcOwner is the sentinel lock holder used by the garbage collector.
var gcOwner = new(Desc)

// Load returns the current owner (nil when unlocked).
func (l *Lock) Load() *Desc { return l.owner.Load() }

// TryLockGC takes the lock for a collector pass if it is free.
func (l *Lock) TryLockGC() bool { return l.owner.CompareAndSwap(nil, gcOwner) }

// UnlockGC releases a lock taken by TryLockGC.
func (l *Lock) UnlockGC() { l.owner.CompareAndSwap(gcOwner, nil) }

// acquire spins up to budget iterations for the lock.
func (l *Lock) acquire(d *Desc, budget int) bool {
	for i := 0; ; i++ {
		if l.owner.CompareAndSwap(nil, d) {
			return true
		}
		if i >= budget {
			return false
		}
		runtime.Gosched()
	}
}

// WaitUnlocked spins until the lock is free or held by self (self may be
// nil). A negative budget waits forever (read-only transactions, which must
// never abort; they hold no locks, so the wait always terminates). It reports
// false if the budget expired.
func (l *Lock) WaitUnlocked(self *Desc, budget int) bool {
	for i := 0; ; i++ {
		if o := l.owner.Load(); o == nil || o == self {
			return true
		}
		if budget >= 0 && i >= budget {
			return false
		}
		runtime.Gosched()
	}
}

// errAppendFailed stands for an Append failure this engine latched when the
// logger has no error of its own to report.
var errAppendFailed = errors.New("mvutil: an earlier commit-log append failed; the log takes no more records")

// CommitUpdate commits d's buffered writes and reports whether it committed;
// on false LastAbortReason says why, and all cleanup has happened. The
// engine's Commit calls it once its read-only/empty-write-set early return
// did not apply.
func (c *Chassis) CommitUpdate(d *Desc) bool {
	prof := c.stats.Profiler()
	var t0 int64
	if prof != nil {
		t0 = prof.Now()
	}

	// Admit. A logger that latched a failure can never accept another
	// record, so the commit fails at the door — no lock taken, no tick
	// drawn — and nothing is ever logged after a hole.
	if c.logFailed.Load() || (c.logErr != nil && c.logErr() != nil) {
		d.durErr = c.latchedErr()
		return c.resolve(d, stm.ReasonDurability, prof)
	}

	// Lock the write set in variable-id order (deadlock avoidance). Each
	// wait is a bounded spin; a timeout fails the commit.
	d.writes = d.m.Writes(d.writes[:0])
	budget := c.Opts.LockSpinBudget
	for d.held < len(d.writes) && d.writes[d.held].Lock.acquire(d, budget) {
		d.held++
	}
	if d.held < len(d.writes) {
		return c.resolve(d, stm.ReasonLockTimeout, prof)
	}
	if prof != nil {
		now := prof.Now()
		prof.AddWriteSetVal(now - t0)
		t0 = now
	}

	// Draw N(tx), strictly after the lock step (lock-before-draw
	// publication): a committer owns all its write locks when it draws its
	// order and releases each only after installing, so whoever later draws
	// a larger order — or begins a snapshot at or above ours — finds our
	// version installed or our variable locked, and the lock waits in
	// Validate and in the read barriers order it behind our installs. The
	// paper increments after validation (line 65), relying on its lock-free
	// commit's atomicity; with locks that order lets two committers validate
	// before either installs and both miss the other's anti-dependency.
	d.Draw = c.Clk.Add(1)

	// Validate and install. A commit that fails validation wastes its tick
	// (a harmless clock gap).
	r := d.m.Validate()
	if prof != nil {
		now := prof.Now()
		prof.AddReadSetVal(now - t0)
		t0 = now
	}
	if r != stm.ReasonNone {
		return c.resolve(d, r, prof)
	}
	d.m.Install()

	// Log, with the write locks still held (append-before-visible): a
	// version is reachable by other transactions only once its variable
	// unlocks, so nothing is visible before its record is appended, append
	// order respects the reads-from order, and a crash can only lose a
	// dependency-closed suffix. An Append that fails leaves the commit
	// installed in memory but unlogged; it latches logFailed so nothing is
	// ever logged after the hole.
	logger := c.Opts.Logger
	var lsn stm.LSN
	var err error
	if logger != nil {
		d.rec[0] = c.record(d)
		if lsn, err = logger.Append(d.rec[:]); err != nil {
			c.logFailed.Store(true)
		}
	}
	d.unlock()
	if prof != nil {
		prof.AddCommit(prof.Now() - t0)
	}
	if logger != nil {
		if err == nil {
			err = logger.Durable(lsn)
		} else if c.boundedLoss {
			err = nil // acknowledged like any commit within the policy's loss bound
		}
	}

	// A logging failure cannot demote the commit — the versions are
	// visible, and reporting an ordinary abort would invite a double-apply —
	// nor acknowledge it: its outcome is unknown.
	outcome := stm.ReasonNone
	if err != nil {
		d.durErr = err
		outcome = stm.ReasonOutcomeUnknown
	}
	ok := c.resolve(d, outcome, prof)
	c.gcTick()
	return ok
}

// latchedErr is the failure behind a refusal at the admit step.
func (c *Chassis) latchedErr() error {
	if c.logErr != nil {
		if err := c.logErr(); err != nil {
			return err
		}
	}
	return errAppendFailed
}

// record builds d's commit record in its own scratch. Serial is the
// serialization key, Tie the natural order (equal-Serial clashes replay
// smallest-Tie, the same winner clash elision keeps in memory).
func (c *Chassis) record(d *Desc) stm.CommitRecord {
	d.logWrites = d.logWrites[:0]
	for i := range d.writes {
		d.logWrites = append(d.logWrites, d.writes[i].LoggedWrite)
	}
	return stm.CommitRecord{Serial: d.Serial, Tie: d.Draw, Writes: d.logWrites}
}

// unlock releases the commit locks d holds.
func (d *Desc) unlock() {
	for i := range d.writes[:d.held] {
		d.writes[i].Lock.owner.CompareAndSwap(d, nil)
	}
	d.held = 0
}

// resolve finishes the commit — locks released, registration ended, outcome
// recorded — and reports whether it committed.
//
// The active-set registration ends here rather than when the engine's Commit
// returns because the GC tick comes after: a committer still registered
// during its own collector pass would hold that pass's bound at its start,
// and make every read-only transaction that begins meanwhile stamp (Quiet) on
// account of a transaction that is already over.
func (c *Chassis) resolve(d *Desc, reason stm.AbortReason, prof *stm.Profiler) bool {
	d.unlock()
	c.Active.Unregister(&d.Slot)
	if reason == stm.ReasonNone {
		d.Stats.RecordCommit(false)
	} else {
		d.Stats.RecordAbort(reason)
		d.lastReason = reason
	}
	if prof != nil {
		prof.AddTx()
	}
	return reason == stm.ReasonNone
}
