package mvutil

import (
	"runtime"
	"sync/atomic"

	"repro/internal/stm"
)

// This file is the commit pipeline shared by the multi-version engines: the
// paper's COMMIT (Algorithm 2) as one staged round over k >= 1 committers,
//
//	admit → claim/spill → lock → draw → validate → install → log → release
//	      → durable wait → resolve → GC tick
//
// with the engine supplying only its validation rule (Member). A serial
// commit is a round of one over descriptor-local scratch; a group-commit
// leader runs the same round over a drained batch. The safety arguments are
// stated once, at the stage they belong to (round), and in DESIGN.md §7.

// Member is what an engine's transaction descriptor plugs into the pipeline:
// the three steps of the commit protocol that differ between engines, plus
// the projection of its typed write set. Each is called O(1) times per
// commit; the per-entry loops inside them are the engine's concrete code.
type Member interface {
	// Writes appends the write set in ascending variable-id order.
	Writes(dst []WriteRef) []WriteRef
	// PreDoomed reports a monotone, certainly-fatal condition visible before
	// any lock is taken or clock ticked (stm.ReasonNone when there is none).
	// It must never reject a commit Validate would accept.
	PreDoomed() stm.AbortReason
	// Validate decides the commit at the member's turn, with every write
	// lock held and Desc.Draw assigned: it performs the engine's commit-time
	// reads of shared state (raises, scans), sets Desc.Serial and returns
	// stm.ReasonNone, or returns the abort reason. Lock waits must go
	// through Lock.WaitUnlocked with the member's Desc.
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
// descriptors: the pipeline's per-member state and the descriptor-local
// scratch a serial round runs on. A *Desc is also the identity that owns
// commit locks.
type Desc struct {
	Stats *stm.StatShard // striped counters; assigned once per descriptor
	Slot  Slot           // active-set registration, reused across attempts

	// Draw is the natural commit order the draw stage assigned (N(tx); the
	// write version for JVSTM). Serial is the serialization key Validate
	// chose (TW(tx); equal to Draw unless the commit time-warped).
	Draw       uint64
	Serial     uint64
	lastReason stm.AbortReason // why the last commit failed

	m      Member
	writes []WriteRef
	held   int // commit locks held: writes[:held]
	// inBatch marks a member of the batch a group-commit leader is
	// installing. It is written only by the leader, under the combiner's
	// leader lock, and is false again before the request resolves; serial
	// rounds never set it.
	inBatch bool
	stripe  int // sticky combiner publication stripe
	req     CommitReq
	solo    [1]*Desc // the round of one: {self}
	local   scratch
	// logWrites backs this member's commit record; the logger must not
	// retain it past Append.
	logWrites []stm.LoggedWrite
}

// InitDesc wires a freshly allocated descriptor to its engine-side half.
func (c *Chassis) InitDesc(d *Desc, m Member, stats *stm.StatShard) {
	d.m, d.Stats = m, stats
	d.solo[0] = d
	d.stripe = int(c.stripeSeq.Add(1))
}

// Reset clears the per-attempt state before the descriptor returns to its
// pool. The scratch keeps its backing arrays.
func (d *Desc) Reset() {
	d.Draw, d.Serial = 0, 0
	d.lastReason = stm.ReasonNone
	d.writes = stm.ResetVarSlice(d.writes)
	d.logWrites = stm.ResetVarSlice(d.logWrites)
}

// LastAbortReason implements stm.AbortReasoner for the embedding descriptor:
// the reason of the most recent commit-time abort, so the retry loop can
// report it in a *stm.CancelledError (read-path aborts carry their reason in
// the retry signal instead).
func (d *Desc) LastAbortReason() stm.AbortReason { return d.lastReason }

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
//
// While a group-commit leader processes member self, locks held by other
// members of the same batch count as unlocked. The leader locks every member
// before processing any, so during m's validation a not-yet-installed member
// k still holds its write locks; k's versions do not exist yet (exactly as in
// the sequential schedule, where m commits before k), and waiting on k would
// deadlock the leader against itself. Only the collector's sentinel (never in
// a batch) is genuinely waited out. Outside a leader session self.inBatch is
// false and this is the plain wait.
func (l *Lock) WaitUnlocked(self *Desc, budget int) bool {
	for i := 0; ; i++ {
		o := l.owner.Load()
		if o == nil || o == self || (self != nil && self.inBatch && o.inBatch) {
			return true
		}
		if budget >= 0 && i >= budget {
			return false
		}
		runtime.Gosched()
	}
}

// scratch is one round's working state: descriptor-local for a serial round,
// the Chassis's (under the leader lock) for a group-commit round.
type scratch struct {
	admitted []*Desc
	recs     []stm.CommitRecord
	claimed  map[*Lock]struct{}
}

// CommitUpdate commits d's buffered writes through the pipeline and reports
// whether it committed; on false LastAbortReason says why, and all cleanup has
// happened. The engine's Commit calls it once its read-only/empty-write-set
// early return did not apply.
func (c *Chassis) CommitUpdate(d *Desc) bool {
	if c.combiner == nil {
		c.round(d.solo[:], &d.local)
		return d.req.OK
	}
	// Group commit: publish to the flat-combining stage and let a leader —
	// possibly this goroutine — run the round on the batch's behalf.
	d.req.Reset(d)
	ok, handoff := c.combiner.Submit(&d.req, d.stripe, c.lead)
	if handoff {
		d.Stats.RecordHandoff()
	}
	return ok
}

// lead commits one drained batch: rounds until nothing is left spilled. It
// always runs under the combiner's leader lock, which guards c.batch/c.pend.
func (c *Chassis) lead(reqs []*CommitReq) {
	pend := c.pend[:0]
	for _, r := range reqs {
		pend = append(pend, r.Tx.(*Desc))
	}
	c.pend = pend
	for len(pend) > 0 {
		pend = c.round(pend, &c.batch)
	}
	// Drop descriptor references: a resolved member may be recycled by its
	// submitter at any time, and leader-held scratch must not pin it.
	clear(c.pend[:cap(c.pend)])
	clear(c.batch.admitted[:cap(c.batch.admitted)])
	clear(c.batch.recs[:cap(c.batch.recs)])
	clear(c.batch.claimed)
}

// round runs the pipeline once over ms, resolving every member exactly once
// except those it returns: members whose write sets overlap an earlier
// member's, spilled to the next round.
func (c *Chassis) round(ms []*Desc, sc *scratch) (spill []*Desc) {
	prof := c.Prof.Load()
	var t0 int64
	if prof != nil {
		t0 = prof.Now()
	}

	// Admit. On refusal the whole round fails — a latched logger refuses
	// every member alike. No lock is held.
	if r := c.admit(); r != stm.ReasonNone {
		for _, d := range ms {
			c.resolve(d, r, prof)
		}
		return nil
	}

	// Pass on abort, then claim. A member that is already provably doomed
	// fails here, before taking any lock and — crucially — before ticking the
	// shared clock: failed commits that tick the clock push every concurrent
	// snapshot further behind the present, manufacturing more stale reads
	// and more failed commits (GV5-style relief, DESIGN.md §12.3). Survivors
	// join the round iff their write set is disjoint from every earlier
	// member's claims; the rest spill, which keeps lock-everything-then-
	// install-in-order free of deadlock and intra-round write aliasing.
	admitted, spill := sc.admitted[:0], ms[:0]
	if len(ms) > 1 {
		if sc.claimed == nil {
			sc.claimed = make(map[*Lock]struct{}, 64)
		}
		clear(sc.claimed)
	}
	for _, d := range ms {
		if r := d.m.PreDoomed(); r != stm.ReasonNone {
			c.resolve(d, r, prof)
			continue
		}
		d.writes = d.m.Writes(d.writes[:0])
		if len(ms) > 1 && !claim(d.writes, sc.claimed) {
			d.Stats.RecordBatchSpills(1)
			spill = append(spill, d)
			continue
		}
		admitted = append(admitted, d)
	}
	sc.admitted = admitted

	// Lock: every admitted member's write set, per member in variable-id
	// order (deadlock avoidance), before any member is processed. Each wait is a bounded spin; a timeout fails just that
	// member with stm.ReasonLockTimeout.
	budget := c.Opts.LockSpinBudget
	locked := admitted[:0]
	for _, d := range admitted {
		d.inBatch = c.combiner != nil
		for d.held < len(d.writes) && d.writes[d.held].Lock.acquire(d, budget) {
			d.held++
		}
		if d.held < len(d.writes) {
			c.resolve(d, stm.ReasonLockTimeout, prof)
			continue
		}
		locked = append(locked, d)
	}
	if prof != nil {
		now := prof.Now()
		prof.AddWriteSetVal(now - t0)
		t0 = now
	}
	k := len(locked)
	if k == 0 {
		return spill
	}

	// Draw, strictly after the lock stage (lock-before-draw publication): a
	// committer owns all its write locks when it draws its order and releases
	// each only after installing, so whoever later draws a larger order — or
	// begins a snapshot at or above ours — finds our version installed or our
	// variable locked, and the lock waits in Validate and in the read
	// barriers order it behind our installs. The paper increments after
	// validation (line 65), relying on its lock-free commit's atomicity; with
	// locks that order lets two committers validate before either installs
	// and both miss the other's anti-dependency. One fetch-add draws the
	// whole round's orders, ascending in processing order.
	first := c.Clk.Add(uint64(k)) - uint64(k) + 1
	for i, d := range locked {
		d.Draw = first + uint64(i)
	}
	if c.combiner != nil {
		locked[0].Stats.RecordBatch(k)
		locked[0].Stats.RecordClockAdvance()
	}

	// Validate and install in draw order. Each member's checks run at its
	// turn, against the state every earlier member left — raises applied,
	// versions installed — so the round is observationally the sequential
	// schedule m_1; ...; m_k (batch ≡ sequential schedule). A member that
	// fails here wastes its tick (a harmless clock gap).
	logger := c.Opts.Logger
	recs := sc.recs[:0]
	done := locked[:0]
	for _, d := range locked {
		r := d.m.Validate()
		if prof != nil {
			now := prof.Now()
			prof.AddReadSetVal(now - t0)
			t0 = now
		}
		if r != stm.ReasonNone {
			c.resolve(d, r, prof)
			continue
		}
		d.m.Install()
		if logger != nil {
			recs = append(recs, c.record(d))
		}
		done = append(done, d)
		if prof != nil {
			now := prof.Now()
			prof.AddCommit(now - t0)
			t0 = now
		}
	}
	sc.recs = recs

	// Log, with every survivor's write locks still held (append-before-
	// visible): a version is reachable by other transactions only once its
	// variable unlocks, so nothing is visible before its record is appended,
	// append order respects the reads-from order, and a crash can only lose a
	// dependency-closed suffix. One record per round, survivors in draw order.
	// An Append that fails leaves the round installed in memory but unlogged;
	// it latches logFailed so no later round is ever logged after the hole,
	// and callers that promise zero loss gate their acks on the logger's Err
	// (internal/server).
	var lsn stm.LSN
	var err error
	if len(recs) > 0 {
		if lsn, err = logger.Append(recs); err != nil {
			c.logFailed.Store(true)
		}
	}
	for _, d := range done {
		d.unlock()
	}
	if prof != nil {
		prof.AddCommit(prof.Now() - t0)
	}
	if len(recs) > 0 && err == nil {
		// One durability wait covers the round; members acknowledge only
		// after it. A failure here cannot demote the commits (the versions
		// are visible — reporting failure would invite a double-apply); the
		// latched logger fails the next round at the door.
		logger.Durable(lsn) //nolint:errcheck
	}
	for _, d := range done {
		c.resolve(d, stm.ReasonNone, prof)
	}
	c.gcTick(len(done))
	return spill
}

// claim reports whether writes is disjoint from claimed and, if so, adds it.
func claim(writes []WriteRef, claimed map[*Lock]struct{}) bool {
	for i := range writes {
		if _, ok := claimed[writes[i].Lock]; ok {
			return false
		}
	}
	for i := range writes {
		claimed[writes[i].Lock] = struct{}{}
	}
	return true
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
	d.inBatch = false
}

// resolve finishes one member: locks released, registration ended, outcome
// recorded. Everything the submitter may observe is written before Finish — it
// can recycle the descriptor the moment the request reports done.
//
// The active-set registration ends here rather than when the engine's Commit
// returns because the round's GC tick comes after: a committer still
// registered during its own collector pass would hold that pass's bound at its
// start, and make every read-only transaction that begins meanwhile stamp
// (Quiet) on account of a transaction that is already over.
func (c *Chassis) resolve(d *Desc, reason stm.AbortReason, prof *stm.Profiler) {
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
	if c.combiner == nil {
		d.req.OK = reason == stm.ReasonNone // same goroutine: no hand-off to publish
		return
	}
	d.req.Finish(reason == stm.ReasonNone)
}
