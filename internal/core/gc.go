package core

// Multi-version garbage collection (§3.4 of the paper): with k the start
// timestamp of the oldest active transaction, every version strictly older
// than the newest version visible at k can never again be read — the newest
// version with natOrder <= k and twOrder <= k satisfies every active and
// future snapshot, and the paper's argument shows no future commit can
// time-warp below k (such a transaction would need a concurrent
// anti-dependent committer with natOrder < k, contradicting k's minimality).
//
// Under a version budget (Options.Budget) two more passes exist on top of the
// snapshot-bounded rule: admitInstall runs the same pass eagerly when the
// budget crosses its soft limit, and trimLocked cuts chains to a fixed depth
// at hard pressure — the one pass that may free versions an active snapshot
// still needs (the affected transactions restart with
// stm.ReasonMemoryPressure; see DESIGN.md §11).

import (
	"repro/internal/mvutil"
	"repro/internal/stm"
)

// maybeGC runs a collection pass every Options.GCEveryNCommits update commits.
func (tm *TM) maybeGC() {
	every := tm.opts.GCEveryNCommits
	if every < 0 {
		return
	}
	if tm.gcCount.Add(1)%uint64(every) != 0 {
		return
	}
	tm.GC()
}

// GC trims version lists down to the oldest version any active or future
// transaction can observe. It skips variables whose commit lock is busy (the
// next pass will get them) and returns the number of versions released.
func (tm *TM) GC() int {
	// Passes are serialized so each pass's bound is at least its
	// predecessor's; an older bound walking a list truncated by a newer pass
	// would run off the tail.
	tm.gcMu.Lock()
	defer tm.gcMu.Unlock()
	return tm.gcLocked()
}

// gcLocked is the collection pass body; the caller holds gcMu.
//
// At ClockShards>1 the bound is computed per shard: active transactions
// register their snapshot vectors (RegisterVec), so shard s's bound is the
// oldest *component s* among live snapshots, capped by shard s's own clock —
// exact per domain. Folding the scalar min instead would couple every
// shard's bound to the slowest shard's clock and, under skewed progress,
// freeze collection on the busy shards (chains then grow without bound and
// each pass re-walks them).
func (tm *TM) gcLocked() int {
	var bounds [mvutil.MaxClockShards]uint64
	k := tm.clock.Shards()
	for s := 0; s < k; s++ {
		bounds[s] = tm.clock.Load(s)
	}
	tm.active.MinStarts(bounds[:k])
	tm.varsMu.Lock()
	vars := tm.vars // snapshot; vars are append-only
	tm.varsMu.Unlock()

	freed := 0
	var freedBytes int64
	for _, v := range vars {
		if v.latest.Load().next.Load() == nil {
			// One version: nothing to free, so leave the lock word — and the
			// line every traversal of v loads — untouched. An install racing
			// this check is the next pass's business.
			continue
		}
		if !v.owner.CompareAndSwap(nil, gcOwner) {
			continue // busy committer; skip
		}
		bound := bounds[v.shard]
		ver := v.latest.Load()
		for ver.natOrder > bound || ver.twOrder > bound {
			next := ver.next.Load()
			if next == nil {
				// A trim pass already cut below the version visible at bound;
				// ver is the oldest retained version and nothing older exists
				// to free.
				break
			}
			ver = next
		}
		// ver is the newest version visible at bound (or the trim cut);
		// everything older is unreachable by any current or future snapshot.
		for tail := ver.next.Load(); tail != nil; tail = tail.next.Load() {
			freed++
			freedBytes += mvutil.ApproxVersionBytes(tail.value)
		}
		ver.next.Store(nil)
		v.owner.CompareAndSwap(gcOwner, nil)
	}
	if b := tm.opts.Budget; b != nil && freed > 0 {
		b.Release(int64(freed), freedBytes)
	}
	return freed
}

// trimLocked cuts every variable's chain to at most depth versions, newest
// first; the caller holds gcMu. Unlike gcLocked it ignores the active-snapshot
// bound, so it may free versions an in-flight transaction still needs — the
// hard-pressure degradation that trades the read-only no-abort guarantee for
// a memory bound. Safety survives because a trim only removes a chain suffix:
// every read and commit-time scan that terminates normally saw exactly what
// it would have seen pre-trim, and a walk that reaches the shortened end
// aborts with stm.ReasonMemoryPressure instead of guessing. It returns the
// number of versions released.
func (tm *TM) trimLocked(depth int) int {
	if depth < 1 {
		depth = 1
	}
	tm.varsMu.Lock()
	vars := tm.vars // snapshot; vars are append-only
	tm.varsMu.Unlock()

	freed := 0
	var freedBytes int64
	for _, v := range vars {
		if v.latest.Load().next.Load() == nil {
			continue // one version; see gcLocked
		}
		if !v.owner.CompareAndSwap(nil, gcOwner) {
			continue // busy committer; skip
		}
		ver := v.latest.Load()
		for i := 1; i < depth; i++ {
			next := ver.next.Load()
			if next == nil {
				break
			}
			ver = next
		}
		for tail := ver.next.Load(); tail != nil; tail = tail.next.Load() {
			freed++
			freedBytes += mvutil.ApproxVersionBytes(tail.value)
		}
		ver.next.Store(nil)
		v.owner.CompareAndSwap(gcOwner, nil)
	}
	if b := tm.opts.Budget; b != nil && freed > 0 {
		b.Release(int64(freed), freedBytes)
	}
	return freed
}

// VersionCount returns the number of live versions of v (including the
// oldest retained one). Exposed for tests and the GC ablation benchmark.
func (tm *TM) VersionCount(v stm.Var) int {
	tv := v.(*twvar)
	n := 0
	for ver := tv.latest.Load(); ver != nil; ver = ver.next.Load() {
		n++
	}
	return n
}
