// Quickstart: concurrent bank transfers on the Time-Warp Multi-version STM.
//
// Run with:
//
//	go run ./examples/quickstart
//
// Ten goroutines shuffle money between eight accounts while a read-only
// auditor continuously checks that the total is conserved — read-only
// transactions in TWM never abort and always see a consistent snapshot.
package main

import (
	"fmt"
	"log"
	"sync"

	"repro/internal/core"
	"repro/internal/stm"
	"repro/internal/xrand"
)

func main() {
	tm := core.New(core.Options{})

	const accounts = 8
	const initial = 100
	accs := make([]*stm.TVar[int], accounts)
	for i := range accs {
		accs[i] = stm.NewTVar(tm, initial)
	}

	transfer := func(from, to, amount int) error {
		return stm.Atomically(tm, false, func(tx stm.Tx) error {
			balance := accs[from].Get(tx)
			if balance < amount {
				return fmt.Errorf("insufficient funds in account %d", from)
			}
			accs[from].Set(tx, balance-amount)
			accs[to].Set(tx, accs[to].Get(tx)+amount)
			return nil
		})
	}

	audit := func() int {
		total := 0
		if err := stm.Atomically(tm, true, func(tx stm.Tx) error {
			total = 0
			for _, a := range accs {
				total += a.Get(tx)
			}
			return nil
		}); err != nil {
			log.Fatal(err)
		}
		return total
	}

	var wg sync.WaitGroup
	for g := 0; g < 10; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := xrand.New(seed)
			for i := 0; i < 500; i++ {
				from, to := r.Intn(accounts), r.Intn(accounts)
				if from == to {
					continue
				}
				_ = transfer(from, to, 1+r.Intn(25)) // insufficient funds is fine
			}
		}(uint64(g + 1))
	}

	done := make(chan struct{})
	go func() { // auditor
		for {
			select {
			case <-done:
				return
			default:
			}
			if total := audit(); total != accounts*initial {
				log.Fatalf("audit failed: total = %d", total)
			}
		}
	}()
	wg.Wait()
	close(done)

	fmt.Printf("final total: %d (expected %d)\n", audit(), accounts*initial)
	snap := tm.Stats().Snapshot()
	fmt.Printf("commits: %d (read-only %d), restarts: %d, abort rate: %.1f%%\n",
		snap.Commits, snap.ROCommits, snap.Aborts, snap.AbortRate()*100)
	// Snapshot every balance in one read-only transaction, then print outside
	// it: bodies re-execute on abort, so printing inside would duplicate lines.
	balances := make([]int, len(accs))
	_ = stm.Atomically(tm, true, func(tx stm.Tx) error {
		for i, a := range accs {
			balances[i] = a.Get(tx)
		}
		return nil
	})
	for i, b := range balances {
		fmt.Printf("  account %d: %d\n", i, b)
	}
}
