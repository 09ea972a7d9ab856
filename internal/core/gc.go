package core

// Multi-version garbage collection (§3.4 of the paper): with k the start
// timestamp of the oldest active transaction, every version strictly older
// than the newest version visible at k can never again be read — the newest
// version with natOrder <= k and twOrder <= k satisfies every active and
// future snapshot, and the paper's argument shows no future commit can
// time-warp below k (such a transaction would need a concurrent
// anti-dependent committer with natOrder < k, contradicting k's minimality).
//
// The schedule and the bound are the shared chassis's (mvutil.Chassis.GC);
// this file is the pass over TWM's chains.

import "repro/internal/stm"

// sweep is the chain pass behind mvutil.Chassis; gcMu is held. Per variable
// in the dirty queue (mvutil.Dirty) it frees everything older than the
// newest version visible at bound; a variable back to one version leaves the
// queue on its root, and one it cannot finish stays for the next pass.
//
// Re-rooting: the visit that trims a variable to one heap version V copies
// it into the embedded root, so a variable that has gone cold costs its
// readers one line again. The root is off the chain by then, and V is visible
// at bound, which every live snapshot is at or above (DESIGN.md §2): every
// walk stops at or above V, so none can still stand on the root.
func (tm *TM) sweep(bound uint64) (freed int) {
	var rerooted uint64
	tm.dirty.Drain(func(v *twvar) bool {
		// A variable with nothing to do costs two loads and keeps its lock
		// word — the line every traversal of v loads — untouched. An
		// install racing the loads keeps v queued, as it already is.
		head := v.latest.Load()
		if ver := visibleAt(head, bound); ver != head && ver.next.Load() == nil {
			return true
		}
		if !v.owner.TryLockGC() {
			return true
		}
		defer v.owner.UnlockGC()
		head = v.latest.Load()
		// ver is the newest version that must stay; everything older goes.
		ver := visibleAt(head, bound)
		for tail := ver.next.Load(); tail != nil; tail = tail.next.Load() {
			freed++
		}
		ver.next.Store(nil)
		if ver != head {
			return true
		}
		if head != &v.root {
			v.root.value, v.root.natOrder, v.root.twOrder = head.value, head.natOrder, head.twOrder
			v.latest.Store(&v.root)
			rerooted++
		}
		v.meta.queued = false
		return false
	})
	tm.stats.RecordReRoots(rerooted)
	return freed
}

// visibleAt returns the newest version of the chain at head visible at bound,
// or its oldest if none is: bounds are not monotone across passes
// (Chassis.GC), so an earlier pass at a higher bound may already have cut
// below the version visible at this one.
func visibleAt(head *version, bound uint64) *version {
	ver := head
	for ver.natOrder > bound || ver.twOrder > bound {
		next := ver.next.Load()
		if next == nil {
			break
		}
		ver = next
	}
	return ver
}

// VersionCount returns the number of live versions of v (including the
// oldest retained one). Exposed for tests and the GC ablation benchmark.
func (tm *TM) VersionCount(v stm.Var) int {
	n := 0
	for ver := v.(*twvar).latest.Load(); ver != nil; ver = ver.next.Load() {
		n++
	}
	return n
}
