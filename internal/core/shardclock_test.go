package core_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dsg"
	"repro/internal/mvutil"
	"repro/internal/stm"
	"repro/internal/stm/stmtest"
)

// Partitioned multi-clock tests (DESIGN.md §17): the full conformance and
// serializability batteries at several shard counts, the single- vs
// cross-shard commit accounting, and the per-shard clock seeding used by
// recovery.

func clockShardFactory(k int) func() stm.TM {
	return func() stm.TM { return core.New(core.Options{Options: mvutil.Options{ClockShards: k}}) }
}

func TestClockShardRounding(t *testing.T) {
	for _, c := range []struct{ in, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {5, 8}, {16, 16}, {65, 64}, {1 << 20, 64},
	} {
		tm := core.New(core.Options{Options: mvutil.Options{ClockShards: c.in}})
		if got := tm.ClockShards(); got != c.want {
			t.Errorf("ClockShards(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestClockShardOpacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("Opacity + ClockShards > 1 must panic")
		}
	}()
	core.New(core.Options{Options: mvutil.Options{ClockShards: 2}, Opacity: true})
}

func TestConformanceClockShards(t *testing.T) {
	for _, k := range []int{2, 4, 16} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			stmtest.Run(t, clockShardFactory(k), stmtest.Options{RONeverAborts: true})
		})
	}
}

func TestSerializabilityDSGClockShards(t *testing.T) {
	for _, k := range []int{2, 4, 16} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			dsg.CheckRandom(t, clockShardFactory(k)(), dsg.RunOptions{Seed: uint64(k)})
		})
	}
}

func TestSerializabilityDSGClockShardsHighContention(t *testing.T) {
	// Few variables spread over few shards: nearly every update transaction
	// has a multi-shard footprint, hammering the cross-shard fence draw and
	// its per-shard classic validation.
	for _, k := range []int{2, 4} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			dsg.CheckRandom(t, clockShardFactory(k)(),
				dsg.RunOptions{Vars: 3, Goroutines: 8, TxPerG: 120, Seed: uint64(100 + k)})
		})
	}
}

func TestSerializabilityDSGClockShardsReadHeavy(t *testing.T) {
	dsg.CheckRandom(t, clockShardFactory(4)(),
		dsg.RunOptions{Vars: 6, Goroutines: 6, TxPerG: 150, ReadOnlyP: 0.6, Seed: 17})
}

func TestSerializabilityDSGClockShardsAblation(t *testing.T) {
	// Sharding composes with the no-time-warp ablation: every commit
	// validates classically, single- and cross-shard alike.
	dsg.CheckRandom(t, core.New(core.Options{Options: mvutil.Options{ClockShards: 4}, DisableTimeWarp: true}),
		dsg.RunOptions{Vars: 4, Goroutines: 8, TxPerG: 120, Seed: 23})
}

func TestSerializabilityDSGClockShardsGroupCommit(t *testing.T) {
	// Sharded group commit: per-shard batch advances plus fence draws for
	// cross-footprint members (the pipeline's draw stage, mvutil.Chassis).
	for _, k := range []int{2, 4} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			dsg.CheckRandom(t, core.New(core.Options{Options: mvutil.Options{ClockShards: k, GroupCommit: true}}),
				dsg.RunOptions{Vars: 4, Goroutines: 8, TxPerG: 120, Seed: uint64(200 + k)})
		})
	}
}

func TestConformanceClockShardsGroupCommit(t *testing.T) {
	stmtest.Run(t, func() stm.TM {
		return core.New(core.Options{Options: mvutil.Options{ClockShards: 4, GroupCommit: true}})
	}, stmtest.Options{RONeverAborts: true})
}

// TestShardCommitAccounting drives one single-shard and one cross-shard
// update through a K=4 engine and checks the new counters and the cross
// commit's orders (natOrder == twOrder == a fence-drawn write version).
func TestShardCommitAccounting(t *testing.T) {
	tm := core.New(core.Options{Options: mvutil.Options{ClockShards: 4}})
	// Default sharder is round-robin on the id: var ids 1..4 land on shards
	// 0..3.
	a := tm.NewVar(0) // shard 0
	b := tm.NewVar(0) // shard 1
	if tm.VarShard(a) == tm.VarShard(b) {
		t.Fatalf("round-robin sharder put consecutive vars on one shard")
	}

	tx := tm.Begin(false)
	tx.Write(a, 1)
	if !tm.Commit(tx) {
		t.Fatalf("single-shard commit failed")
	}
	snap := tm.Stats().Snapshot()
	if snap.SingleShardCommits != 1 || snap.CrossShardCommits != 0 {
		t.Fatalf("after single-shard commit: single=%d cross=%d",
			snap.SingleShardCommits, snap.CrossShardCommits)
	}

	tx = tm.Begin(false)
	if got := tx.Read(a); got != 1 {
		t.Fatalf("read a = %v", got)
	}
	tx.Write(b, 2)
	if !tm.Commit(tx) {
		t.Fatalf("cross-shard commit failed")
	}
	nat, tw := tm.CommitOrders(tx)
	if nat != tw {
		t.Fatalf("cross-shard commit must not time-warp: nat=%d tw=%d", nat, tw)
	}
	snap = tm.Stats().Snapshot()
	if snap.SingleShardCommits != 1 || snap.CrossShardCommits != 1 {
		t.Fatalf("after cross-shard commit: single=%d cross=%d",
			snap.SingleShardCommits, snap.CrossShardCommits)
	}
}

// TestShardCustomSharder pins every variable to shard 3: all footprints are
// single-shard, so the cross path must never trigger.
func TestShardCustomSharder(t *testing.T) {
	tm := core.New(core.Options{Options: mvutil.Options{ClockShards: 4, Sharder: func(id uint64, shards int) int { return 3 }}})
	a, b := tm.NewVar(0), tm.NewVar(0)
	if tm.VarShard(a) != 3 || tm.VarShard(b) != 3 {
		t.Fatalf("sharder not honored: shards %d, %d", tm.VarShard(a), tm.VarShard(b))
	}
	tx := tm.Begin(false)
	tx.Read(a)
	tx.Write(b, 1)
	if !tm.Commit(tx) {
		t.Fatalf("commit failed")
	}
	if snap := tm.Stats().Snapshot(); snap.CrossShardCommits != 0 || snap.SingleShardCommits != 1 {
		t.Fatalf("colocated footprint took the cross path: %+v", snap)
	}
}

// TestShardTimeWarpWithinShard reruns the paper's Fig. 1 history with both
// variables pinned to one shard of a K=4 engine: time-warp must still fire
// inside a clock domain (tw < nat for the warped committer).
func TestShardTimeWarpWithinShard(t *testing.T) {
	tm := core.New(core.Options{Options: mvutil.Options{ClockShards: 4, Sharder: func(id uint64, shards int) int { return 1 }}})
	aNext := tm.NewVar("D")
	dNext := tm.NewVar("E")

	t3 := tm.Begin(false)
	t3.Read(aNext)
	t3.Read(dNext)
	t3.Write(dNext, "nil")

	t2 := tm.Begin(false)
	t2.Read(aNext)
	t2.Write(aNext, "B")
	if !tm.Commit(t2) {
		t.Fatalf("t2 commit failed")
	}
	if !tm.Commit(t3) {
		t.Fatalf("TWM must time-warp commit t3 within its shard")
	}
	nat, tw := tm.CommitOrders(t3)
	if tw >= nat {
		t.Fatalf("t3 should have warped: nat=%d tw=%d", nat, tw)
	}
	ro := tm.Begin(true)
	if got := ro.Read(aNext); got != "B" {
		t.Fatalf("aNext = %v, want B", got)
	}
	if got := ro.Read(dNext); got != "nil" {
		t.Fatalf("dNext = %v, want nil", got)
	}
}

// TestShardCrossStaleReadAborts: a cross-shard footprint cannot time-warp, so
// the history that warps in TestShardTimeWarpWithinShard must abort when the
// two variables live on different shards.
func TestShardCrossStaleReadAborts(t *testing.T) {
	tm := core.New(core.Options{Options: mvutil.Options{ClockShards: 4}})
	aNext := tm.NewVar("D") // shard 0
	dNext := tm.NewVar("E") // shard 1

	t3 := tm.Begin(false)
	t3.Read(aNext)
	t3.Read(dNext)
	t3.Write(dNext, "nil")

	t2 := tm.Begin(false)
	t2.Read(aNext)
	t2.Write(aNext, "B")
	if !tm.Commit(t2) {
		t.Fatalf("t2 commit failed")
	}
	if tm.Commit(t3) {
		t.Fatalf("cross-shard commit must validate classically and abort")
	}
	snap := tm.Stats().Snapshot()
	if snap.ByReason["read-conflict"] != 1 {
		t.Fatalf("abort reasons = %v, want one read-conflict", snap.ByReason)
	}
}

// TestSeedClockShardMonotone races per-shard and global clock seeding against
// concurrent single-shard committers on every shard (satellite: the recovery
// fast-forward path). No committed update may be lost and the final clock
// vector must dominate every seed.
func TestSeedClockShardMonotone(t *testing.T) {
	const (
		k       = 4
		workers = 8
		perW    = 300
		seedTo  = 5000
	)
	tm := core.New(core.Options{Options: mvutil.Options{ClockShards: k}})
	vars := make([]stm.Var, k)
	for i := range vars {
		vars[i] = tm.NewVar(0) // round-robin: vars[i] on shard i
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			v := vars[w%k]
			for i := 0; i < perW; i++ {
				err := stm.Atomically(tm, false, func(tx stm.Tx) error {
					tx.Write(v, tx.Read(v).(int)+1)
					return nil
				})
				if err != nil {
					t.Errorf("atomic increment: %v", err)
					return
				}
			}
		}(w)
	}
	// Seed concurrently with the committers: Raise races Add on every cell.
	for s := 0; s < k; s++ {
		tm.SeedClockShard(s, seedTo)
	}
	tm.SeedClock(seedTo / 2) // lower global seed must be a no-op
	wg.Wait()

	vec := tm.ClockVec(nil)
	if len(vec) != k {
		t.Fatalf("ClockVec len = %d, want %d", len(vec), k)
	}
	for s, c := range vec {
		if c < seedTo {
			t.Fatalf("shard %d clock %d below seed %d", s, c, seedTo)
		}
	}
	total := 0
	ro := tm.Begin(true)
	for _, v := range vars {
		total += ro.Read(v).(int)
	}
	tm.Commit(ro)
	if want := workers * perW; total != want {
		t.Fatalf("lost updates across seeding: got %d, want %d", total, want)
	}
}

// TestShardQuiesceAndGC exercises Quiesce and a GC pass on a sharded engine
// with committed versions spread across domains.
func TestShardQuiesceAndGC(t *testing.T) {
	tm := core.New(core.Options{Options: mvutil.Options{ClockShards: 4, GCEveryNCommits: -1}})
	vars := make([]stm.Var, 8)
	for i := range vars {
		vars[i] = tm.NewVar(0)
	}
	for round := 1; round <= 5; round++ {
		for _, v := range vars {
			tx := tm.Begin(false)
			tx.Write(v, round)
			if !tm.Commit(tx) {
				t.Fatalf("commit failed")
			}
		}
	}
	tm.Quiesce()
	tm.GC()
	for i, v := range vars {
		if n := tm.VersionCount(v); n != 1 {
			t.Fatalf("var %d retains %d versions after GC, want 1", i, n)
		}
		ro := tm.Begin(true)
		if got := ro.Read(v); got != 5 {
			t.Fatalf("var %d = %v after GC, want 5", i, got)
		}
		tm.Commit(ro)
	}
}
