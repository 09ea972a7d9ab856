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

// sweep is the chain pass behind mvutil.Chassis; gcMu is held. It frees, per
// variable, everything older than the newest version visible at bound.
// Variables whose commit lock is busy are skipped (the next pass will get
// them).
//
// Re-rooting: a bounded pass also moves a sole surviving heap version back
// into the variable's embedded root, so a variable that was overwritten and
// has since gone cold costs its readers one line again. The root's bytes may
// only be rewritten when no transaction can still be standing on the version
// they used to hold. A transaction reaches a version by walking down from
// latest, and the root left the chain in an earlier pass; so once every
// transaction that began before that pass ended has finished, none can. The
// pass that unlinks a root marks it (rootFree), every pass ends by sampling
// the clock (sweptAt), and a later pass re-roots only when its bound — the
// oldest registered start, or the clock when none is — exceeds that sample: every transaction registered now began after it, and one that is
// not registered yet has not read anything (Chassis.Snapshot).
func (tm *TM) sweep(bound uint64) (freed int) {
	tm.varsMu.Lock()
	vars := tm.vars // snapshot; vars are append-only
	tm.varsMu.Unlock()

	var rerooted uint64
	for _, v := range vars {
		if head := v.latest.Load(); head.next.Load() == nil {
			// One version: nothing to free, so unless it is to be re-rooted
			// leave the lock word — and the line every traversal of v loads —
			// untouched. An install racing this check is the next pass's
			// business.
			if head == &v.root || !v.rootFree || bound <= tm.sweptAt {
				continue
			}
			if v.owner.TryLockGC() {
				if head = v.latest.Load(); head.next.Load() == nil {
					v.root.value, v.root.natOrder, v.root.twOrder = head.value, head.natOrder, head.twOrder
					v.latest.Store(&v.root)
					v.rootFree = false
					rerooted++
				}
				v.owner.UnlockGC()
			}
			continue
		}
		if !v.owner.TryLockGC() {
			continue
		}
		ver := v.latest.Load()
		for ver.natOrder > bound || ver.twOrder > bound {
			next := ver.next.Load()
			if next == nil {
				// Bounds are not monotone across passes (Chassis.GC): an
				// earlier pass at a higher bound already cut below the
				// version visible at this one; ver is the oldest retained.
				break
			}
			ver = next
		}
		// ver is the newest version that must stay; everything older goes.
		for tail := ver.next.Load(); tail != nil; tail = tail.next.Load() {
			freed++
			if tail == &v.root {
				v.rootFree = true
			}
		}
		ver.next.Store(nil)
		v.owner.UnlockGC()
	}
	tm.sweptAt = tm.Clk.Load()
	tm.stats.RecordReRoots(rerooted)
	return freed
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
