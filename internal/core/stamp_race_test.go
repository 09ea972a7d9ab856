package core

import (
	"sync"
	"testing"

	"repro/internal/mvutil"
	"repro/internal/stm"
)

// Adversarial tests for the sharded semi-visible read stamps (DESIGN.md §12):
// the committer-side max-over-shards must observe raises regardless of which
// home shard a reader landed on, and the shard-wise raise/observe race
// argument must hold end to end while readers pinned to distinct shards race
// a validating committer.

// TestShardedStampTargetAnyShard replays the Fig. 2(b) triad with x's stamp
// promoted, once per possible home shard of the semi-visible reader: the
// pivot B must observe the reader's raise (and abort under Rule 2) no matter
// which stripe carries it.
func TestShardedStampTargetAnyShard(t *testing.T) {
	for shard := 0; shard < mvutil.StampShards; shard++ {
		tm := newTM()
		x := tm.NewVar(0)
		y := tm.NewVar(0)
		tm.PromoteStamp(x)

		b := tm.Begin(false)
		b.Read(y)
		b.Write(x, 99)

		a := tm.Begin(false)
		a.Read(y)
		a.Write(y, 1)
		if !tm.Commit(a) {
			t.Fatalf("shard %d: a commit failed", shard)
		}

		c := tm.Begin(true).(*txn)
		c.stampShard = shard // pin the semi-visible raise to this stripe
		if got := c.Read(x); got != 0 {
			t.Fatalf("shard %d: c read = %v", shard, got)
		}
		if !tm.Commit(c) {
			t.Fatalf("shard %d: read-only c must commit", shard)
		}

		if tm.Commit(b) {
			t.Fatalf("shard %d: pivot B must abort — committer missed the raise in stripe %d", shard, shard)
		}
		snap := tm.Stats().Snapshot()
		if snap.ByReason["triad"] != 1 {
			t.Fatalf("shard %d: abort reasons = %v, want one triad", shard, snap.ByReason)
		}
		if snap.StampMaxScans == 0 {
			t.Fatalf("shard %d: committer never scanned the sharded stamp", shard)
		}
	}
}

// TestShardedStampRaiseObserveRace soaks the shard-wise raise/observe
// argument: readers pinned to distinct shards race a committer (B) that is
// an anti-dependency source and validates x's stamp under its commit lock.
// The checkable end-to-end invariant is exactly the one the argument proves:
// if B time-warp commits at TW(B), then every reader whose snapshot covers
// TW(B) observed B's write — a reader that instead read the old value must
// have raised its stamp early enough for B to see it, making B a
// source-and-target pivot that aborts. A violation here means a committer
// missed a raise in some stripe. Run under -race in CI.
func TestShardedStampRaiseObserveRace(t *testing.T) {
	iters := 400
	if testing.Short() {
		iters = 60
	}
	const readers = 4
	for it := 0; it < iters; it++ {
		tm := newTM()
		x := tm.NewVar(0)
		y := tm.NewVar(0)
		tm.PromoteStamp(x)

		b := tm.Begin(false).(*txn)
		b.Read(y)
		b.Write(x, 99)

		a := tm.Begin(false)
		a.Read(y)
		a.Write(y, 1)
		if !tm.Commit(a) {
			t.Fatalf("iter %d: a commit failed", it)
		}

		type obs struct {
			start uint64
			val   stm.Value
		}
		results := make([]obs, readers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < readers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				c := tm.Begin(true).(*txn)
				c.stampShard = i // distinct stripes across the readers
				v := c.Read(x)
				if !tm.Commit(c) {
					t.Errorf("iter %d: read-only reader aborted", it)
				}
				results[i] = obs{start: c.start, val: v}
			}(i)
		}
		close(start)
		committed := tm.Commit(b)
		wg.Wait()

		if committed {
			for i, r := range results {
				if r.start >= b.twOrder && r.val != 99 {
					t.Fatalf("iter %d: B committed at TW=%d (N=%d) but reader %d with snapshot %d read %v — a raise was missed",
						it, b.twOrder, b.natOrder, i, r.start, r.val)
				}
			}
		}
	}
}

// TestPromotionPublishesRaise covers the two promotion paths
// deterministically (the contention that normally triggers them needs real
// parallelism): a promotion must carry both the inline stamp it extends and
// the raise that triggered it, and a promoter that loses the pointer CAS
// must land its raise in the winner's register.
func TestPromotionPublishesRaise(t *testing.T) {
	tm := newTM()
	x := tm.NewVar(0).(*twvar)
	tx := tm.Begin(false).(*txn)

	tx.semiVisibleRead(x, 7) // inline fast path
	if tm.StampSharded(x) {
		t.Fatal("uncontended raise must not promote")
	}
	if got := tx.stampMax(x); got != 7 {
		t.Fatalf("inline stampMax = %d, want 7", got)
	}

	tx.promoteStamp(x, 9)
	if !tm.StampSharded(x) {
		t.Fatal("promoteStamp did not publish")
	}
	if got := tx.stampMax(x); got != 9 {
		t.Fatalf("post-promotion stampMax = %d, want 9 (raise carried by promotion)", got)
	}

	// A second promoter loses the pointer CAS; its raise must still land.
	tx2 := tm.Begin(false).(*txn)
	tx2.promoteStamp(x, 11)
	if got := tx.stampMax(x); got != 11 {
		t.Fatalf("lost-race promotion stampMax = %d, want 11", got)
	}

	// Post-promotion raises go through the register; the inline stamp stays
	// folded into the committer-side maximum.
	tx.semiVisibleRead(x, 13)
	if got := tx.stampMax(x); got != 13 {
		t.Fatalf("promoted raise stampMax = %d, want 13", got)
	}
	if got := x.stamp.Load(); got != 7 {
		t.Fatalf("inline stamp changed after promotion: %d, want 7", got)
	}
}

// TestPreDoomedCommitLeavesClockAlone verifies the clock-pressure relief: a
// commit that preDoomed rejects — here the Fig. 2(b) triad pivot — must not
// bump the shared clock (doomed commits "pass" on their increment).
func TestPreDoomedCommitLeavesClockAlone(t *testing.T) {
	tm := newTM()
	x := tm.NewVar(0)
	y := tm.NewVar(0)

	b := tm.Begin(false)
	b.Read(y)
	b.Write(x, 99)

	a := tm.Begin(false)
	a.Read(y)
	a.Write(y, 1)
	if !tm.Commit(a) {
		t.Fatal("a commit failed")
	}

	c := tm.Begin(true)
	_ = c.Read(x)
	if !tm.Commit(c) {
		t.Fatal("read-only c must commit")
	}

	before := tm.Clock()
	if tm.Commit(b) {
		t.Fatal("pivot B must abort")
	}
	if after := tm.Clock(); after != before {
		t.Fatalf("doomed commit bumped the clock: %d -> %d", before, after)
	}
	if snap := tm.Stats().Snapshot(); snap.ByReason["triad"] != 1 {
		t.Fatalf("abort reasons = %v, want one triad", snap.ByReason)
	}
}

// TestPreDoomedClassicValidation checks the DisableTimeWarp ablation's
// pre-draw doom: a stale read set aborts before the clock is touched.
func TestPreDoomedClassicValidation(t *testing.T) {
	tm := New(Options{Options: mvutil.Options{GCEveryNCommits: -1}, DisableTimeWarp: true})
	x := tm.NewVar(0)
	y := tm.NewVar(0)

	b := tm.Begin(false)
	b.Read(x)
	b.Write(y, 1)

	a := tm.Begin(false)
	a.Write(x, 2)
	if !tm.Commit(a) {
		t.Fatal("a commit failed")
	}

	before := tm.Clock()
	if tm.Commit(b) {
		t.Fatal("classic validation must abort b")
	}
	if after := tm.Clock(); after != before {
		t.Fatalf("doomed commit bumped the clock: %d -> %d", before, after)
	}
}

// TestAdaptivePromotionUnderContention drives concurrent read-only readers
// at one variable until CAS contention promotes its inline stamp, then
// checks the promoted register carries subsequent raises and the retry
// counter recorded the collisions that triggered promotion.
func TestAdaptivePromotionUnderContention(t *testing.T) {
	tm := newTM()
	x := tm.NewVar(0)

	const readers = 8
	for round := 0; round < 200 && !tm.StampSharded(x); round++ {
		// Bump the clock so every raise proposes a fresh, larger stamp —
		// same-value raises are satisfied without a CAS and cannot collide.
		bump := tm.Begin(false)
		bump.Write(tm.NewVar(0), round)
		if !tm.Commit(bump) {
			t.Fatal("clock bump failed")
		}
		var wg sync.WaitGroup
		for i := 0; i < readers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c := tm.Begin(true)
				_ = c.Read(x)
				_ = tm.Commit(c)
			}()
		}
		wg.Wait()
	}
	if !tm.StampSharded(x) {
		t.Skip("no CAS contention materialized on this machine; promotion not reached")
	}
	if snap := tm.Stats().Snapshot(); snap.StampCASRetries == 0 {
		t.Fatalf("promotion happened but no stamp CAS retries were recorded")
	}
	// Raises keep flowing through the promoted register.
	xv := x.(*twvar)
	before := xv.stamps.Load().Max()
	c := tm.Begin(true)
	_ = c.Read(x)
	if !tm.Commit(c) {
		t.Fatal("read-only commit failed")
	}
	if after := xv.stamps.Load().Max(); after < before {
		t.Fatalf("sharded stamp went backwards: %d -> %d", before, after)
	}
}
