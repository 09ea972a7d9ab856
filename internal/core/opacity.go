package core

import "repro/internal/stm"

// Opacity mode — the extension sketched in §4.2 of the paper.
//
// Baseline TWM guarantees Virtual World Consistency: update transactions use
// a cheaper, invisible read with a stricter visibility rule (natOrder and
// twOrder both at or below the snapshot), so a concurrent reader and writer
// may perceive different serialization orders (one of them then aborts).
// The paper notes that opacity is obtained by "homogenizing the logic
// governing the execution of read operations for both read-only and update
// transactions": update transactions observe time-warp committed versions
// and perform (semi-)visible reads, exactly like read-only ones.
//
// Consequences implemented here:
//
//   - readOpaque: semi-visible read, then the newest version with
//     twOrder <= start — the read-only visibility rule. The semi-visible
//     stamp at read time is what forces a transaction that would time-warp
//     below this snapshot to observe the anti-dependency (and abort as a
//     pivot), keeping every already-read value stable within the snapshot:
//     a writer's warp destination always exceeds its own start, and any
//     writer that began before our read is caught by the stamp.
//   - scanOpaque: commit-time anti-dependency detection keys on twOrder
//     (the serialization order) instead of natOrder: the transaction missed
//     exactly the versions with twOrder above its start, and Rule 1 must
//     serialize it before the earliest of them in time-warp order. Versions
//     from committers with a larger natOrder are ignored when un-warped
//     (they serialize after us at their own natural position) and abort us
//     when warped (their destination is unordered against ours).
//
// The mode is validated by the same machinery as the baseline: the
// cross-engine conformance battery and the DSG serializability oracle (see
// opacity_test.go), plus an in-flight snapshot-consistency check.
func (tx *txn) readOpaque(tv *twvar) stm.Value {
	if val, ok := tx.writeSet.Get(tv); ok {
		return val // read-after-write
	}
	tx.readSet = append(tx.readSet, tv)
	tx.semiVisibleRead(tv, tx.tm.Clk.Load())
	if !tv.owner.WaitUnlocked(&tx.Desc, tx.tm.Opts.LockSpinBudget) {
		tx.Stats.RecordAbort(stm.ReasonLockTimeout)
		stm.Retry(stm.ReasonLockTimeout)
	}
	ver := tv.latest.Load()
	for ver.twOrder > tx.start {
		ver = ver.next.Load()
	}
	return ver.value
}

// scanOpaque performs the commit-time anti-dependency scan for one read
// variable under opacity visibility. It returns stm.ReasonNone when the
// transaction may proceed, stm.ReasonTimeWarpSkip when it must abort (a
// time-warped version from a later natural committer).
func (tx *txn) scanOpaque(ver *version) stm.AbortReason {
	for ver.twOrder > tx.start {
		if ver.natOrder < tx.natOrder {
			// Missed version from an earlier natural committer: serialize
			// before its time-warp position.
			if tx.minAntiDep == 0 || ver.twOrder < tx.minAntiDep {
				tx.minAntiDep = ver.twOrder
			}
			tx.source = true
		} else if ver.timeWarped() {
			return stm.ReasonTimeWarpSkip
		}
		ver = ver.next.Load()
	}
	return stm.ReasonNone
}
