package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/mvutil"
	"repro/internal/stm"
)

// TestGCUnderLoad hammers a small variable set with writers, long-running
// readers and aggressive automatic GC simultaneously, then verifies both
// application-level consistency and that the version lists were actually
// trimmed.
func TestGCUnderLoad(t *testing.T) {
	tm := New(Options{Options: mvutil.Options{GCEveryNCommits: 16}})
	const nv = 8
	const pairSum = 800
	vars := make([]stm.Var, nv)
	for i := range vars {
		vars[i] = tm.NewVar(pairSum / nv)
	}

	var wg sync.WaitGroup
	for g := 0; g < 3; g++ { // transfer writers preserve the total
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := seed
			next := func(n int) int {
				r ^= r << 13
				r ^= r >> 7
				r ^= r << 17
				return int(r % uint64(n))
			}
			for i := 0; i < 400; i++ {
				from, to := next(nv), next(nv)
				if from == to {
					continue
				}
				_ = stm.Atomically(tm, false, func(tx stm.Tx) error {
					f := tx.Read(vars[from]).(int)
					if f < 1 {
						return nil
					}
					tx.Write(vars[from], f-1)
					tx.Write(vars[to], tx.Read(vars[to]).(int)+1)
					return nil
				})
			}
		}(uint64(g)*77 + 13)
	}
	wg.Add(1)
	go func() { // long-running read-only snapshots across GC passes
		defer wg.Done()
		for i := 0; i < 200; i++ {
			tx := tm.Begin(true)
			sum := 0
			for _, v := range vars {
				sum += tx.Read(v).(int)
			}
			if sum != pairSum {
				t.Errorf("snapshot sum = %d, want %d", sum, pairSum)
			}
			if !tm.Commit(tx) {
				t.Errorf("read-only commit failed")
			}
		}
	}()
	wg.Add(1)
	go func() { // explicit GC pressure on top of the automatic passes
		defer wg.Done()
		for i := 0; i < 100; i++ {
			tm.GC()
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}

	// Final consistency and bounded version lists.
	tm.GC()
	total := 0
	tx := tm.Begin(true)
	for _, v := range vars {
		total += tx.Read(v).(int)
	}
	tm.Commit(tx)
	if total != pairSum {
		t.Fatalf("final sum = %d, want %d", total, pairSum)
	}
	for i, v := range vars {
		if n := tm.VersionCount(v); n > 2 {
			t.Fatalf("var %d retains %d versions after quiescent GC", i, n)
		}
	}
}

// TestGCConcurrentPassesDoNotInterfere runs many concurrent GC passes
// against a mutating workload (regression for the serialized-bound fix).
func TestGCConcurrentPassesDoNotInterfere(t *testing.T) {
	tm := New(Options{Options: mvutil.Options{GCEveryNCommits: 8}})
	x := tm.NewVar(0)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				_ = stm.Atomically(tm, false, func(tx stm.Tx) error {
					tx.Write(x, tx.Read(x).(int)+1)
					return nil
				})
				if i%10 == 0 {
					tm.GC()
				}
			}
		}()
	}
	wg.Wait()
	ro := tm.Begin(true)
	if got := ro.Read(x); got != 4*300 {
		t.Fatalf("counter = %v, want %d", got, 4*300)
	}
	tm.Commit(ro)
}

// TestGCReRootChurnWithWalkers overwrites a working set group by group with a
// collector pass every fourth commit, so that at each pass most groups have
// gone cold — one version visible at the bound — and are trimmed and
// re-rooted in the same visit, while walkers traverse everything: read-only
// ones (readRO's walk) and update ones that also write a private variable
// (readUpdate's walk, then Validate's HANDLEREAD walk at commit). A group is
// always written in one transaction, so every walk must find each group
// uniform; under -race the plain stores into a reused root must be ordered
// after every read of what it held before (the re-root argument in sweep).
func TestGCReRootChurnWithWalkers(t *testing.T) {
	const groups, perGroup = 16, 8
	rounds := 4000
	if testing.Short() {
		rounds = 800
	}
	tm := New(Options{Options: mvutil.Options{GCEveryNCommits: 4}})
	vars := make([]stm.Var, groups*perGroup)
	for i := range vars {
		vars[i] = tm.NewVar(0)
	}
	walk := func(tx stm.Tx) error {
		for g := 0; g < groups; g++ {
			first := tx.Read(vars[g*perGroup]).(int)
			for i := 1; i < perGroup; i++ {
				if got := tx.Read(vars[g*perGroup+i]).(int); got != first {
					return fmt.Errorf("walker saw round %d and round %d within group %d", first, got, g)
				}
			}
		}
		return nil
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		readOnly := w < 3
		own := tm.NewVar(0)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; !stop.Load(); n++ {
				err := stm.Atomically(tm, readOnly, func(tx stm.Tx) error {
					if !readOnly {
						tx.Write(own, n)
					}
					return walk(tx)
				})
				if err != nil {
					t.Error(err)
					stop.Store(true)
				}
			}
		}()
	}
	for r := 1; !stop.Load() && r <= rounds; r++ {
		g := r % groups
		_ = stm.Atomically(tm, false, func(tx stm.Tx) error {
			for _, v := range vars[g*perGroup : (g+1)*perGroup] {
				tx.Write(v, r)
			}
			return nil
		})
	}
	stop.Store(true)
	wg.Wait()
	sn := tm.Stats().Snapshot()
	if sn.ReRootedVersions == 0 {
		t.Error("no version was ever re-rooted: the churn did not exercise the path")
	}
	t.Logf("%d versions re-rooted, %d of %d read-only walks quiet, %d update commits", sn.ReRootedVersions, sn.QuietROCommits, sn.ROCommits, sn.Commits-sn.ROCommits)
}
