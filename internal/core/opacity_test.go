package core_test

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dsg"
	"repro/internal/mvutil"
	"repro/internal/stm"
	"repro/internal/stm/stmtest"
)

func opaque() stm.TM { return core.New(core.Options{Opacity: true}) }

func TestOpacityConformance(t *testing.T) {
	stmtest.Run(t, opaque, stmtest.Options{RONeverAborts: true})
}

func TestOpacitySerializabilityDSG(t *testing.T) {
	dsg.CheckRandom(t, opaque(), dsg.RunOptions{})
	dsg.CheckRandom(t, opaque(), dsg.RunOptions{Vars: 3, Goroutines: 8, TxPerG: 120, Seed: 42})
}

func TestOpacitySerializabilityTrueParallelism(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	for round := 0; round < 30 && !t.Failed(); round++ {
		dsg.CheckRandom(t, opaque(), dsg.RunOptions{
			Vars: 5, Goroutines: 8, TxPerG: 80, ReadOnlyP: 0.2,
			Seed: uint64(round*71 + 3),
		})
	}
}

// TestOpacityUpdateReaderSeesTimeWarp is the Fig. 2(c)/(d) scenario with the
// roles inverted: under opacity visibility an update transaction observes
// the time-warp committed version (instead of early-aborting as baseline TWM
// does, see TestFig2dUpdateReaderEarlyAbort).
func TestOpacityUpdateReaderSeesTimeWarp(t *testing.T) {
	tm := core.New(core.Options{Options: mvutil.Options{GCEveryNCommits: -1}, Opacity: true})
	x := tm.NewVar(0)
	y := tm.NewVar(0)
	z := tm.NewVar(0)

	b := tm.Begin(false)
	b.Read(y)
	b.Write(x, 7)

	a := tm.Begin(false)
	a.Write(y, 1)
	if !tm.Commit(a) {
		t.Fatalf("a commit failed")
	}

	u := tm.Begin(false) // S(u) covers TW(B)
	if !tm.Commit(b) {
		t.Fatalf("B must time-warp commit")
	}
	nat, tw := tm.CommitOrders(b)
	if tw >= nat {
		t.Fatalf("B should have time-warped (nat=%d tw=%d)", nat, tw)
	}
	if got := u.Read(x); got != 7 {
		t.Fatalf("opaque update read = %v, want the time-warped 7", got)
	}
	u.Write(z, 1)
	if !tm.Commit(u) {
		t.Fatalf("u should commit")
	}
}

// TestOpacityMissedWarpSerializesBefore: an opaque update transaction that
// missed a committed write time-warps to the missed version's serialization
// point.
func TestOpacityMissedWarpSerializesBefore(t *testing.T) {
	tm := core.New(core.Options{Options: mvutil.Options{GCEveryNCommits: -1}, Opacity: true})
	x := tm.NewVar(0)
	y := tm.NewVar(0)

	u := tm.Begin(false)
	u.Read(y)
	u.Write(x, 1)

	w := tm.Begin(false)
	w.Write(y, 2)
	if !tm.Commit(w) {
		t.Fatalf("w commit failed")
	}
	wNat, _ := tm.CommitOrders(w)

	if !tm.Commit(u) {
		t.Fatalf("u must time-warp commit")
	}
	_, uTW := tm.CommitOrders(u)
	if uTW != wNat {
		t.Fatalf("TW(u) = %d, want %d (w's position)", uTW, wNat)
	}
}

// TestOpacityInflightSnapshotConsistency: the defining observable of opacity
// — even doomed update transactions only ever see consistent states. A
// writer keeps x+y constant; opaque update readers check the invariant
// mid-transaction and record (not fail on) what they saw, since consistency
// must hold on every attempt, including ones that later abort.
func TestOpacityInflightSnapshotConsistency(t *testing.T) {
	tm := core.New(core.Options{Opacity: true})
	const pairSum = 100
	x := tm.NewVar(60)
	y := tm.NewVar(40)
	junk := tm.NewVar(0)

	var violations, checks int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				if id == 0 { // the invariant-preserving writer
					_ = stm.Atomically(tm, false, func(tx stm.Tx) error {
						d := (i % 5) - 2
						tx.Write(x, tx.Read(x).(int)+d)
						tx.Write(y, tx.Read(y).(int)-d)
						return nil
					})
					continue
				}
				_ = stm.Atomically(tm, false, func(tx stm.Tx) error {
					a := tx.Read(x).(int)
					runtime.Gosched() //twm:impure invite interleaving between the reads
					b := tx.Read(y).(int)
					mu.Lock() //twm:impure per-attempt probe counters, deliberately outside the STM
					checks++
					if a+b != pairSum {
						violations++
					}
					mu.Unlock()       //twm:impure see above
					tx.Write(junk, i) // stay an update transaction
					return nil
				})
			}
		}(g)
	}
	wg.Wait()
	if checks == 0 {
		t.Fatalf("no consistency checks ran")
	}
	if violations != 0 {
		t.Fatalf("%d/%d in-flight snapshots were inconsistent", violations, checks)
	}
}
