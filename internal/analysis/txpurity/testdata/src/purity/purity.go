// Package purity is twm-lint golden-test input: effects a transaction body
// must not have (it re-executes on retry), and the //twm:allow directive
// that declares an effect deliberate and must suppress one.
package purity

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stm"
)

var counter uint64

func positives(tm stm.TM, ch chan int, mu *sync.Mutex) {
	_ = stm.Atomically(tm, false, func(tx stm.Tx) error {
		fmt.Println("attempt")    // want `calls fmt.Println`
		_ = time.Now()            // want `calls time.Now`
		_ = rand.Int()            // want `calls rand.Int`
		ch <- 1                   // want `performs a channel send`
		<-ch                      // want `performs a channel receive`
		close(ch)                 // want `closes a channel`
		mu.Lock()                 // want `calls sync.Mutex.Lock`
		atomic.AddUint64(&counter, 1) // want `mutates shared memory with sync/atomic`
		go work()                 // want `spawns a goroutine`
		logIt()                   // want `calls logIt, which calls fmt.Printf`
		deep()                    // want `calls deep, which calls logIt, which calls fmt.Printf`
		_ = stm.Atomically(tm, false, func(inner stm.Tx) error { return nil }) // want `starts a nested transaction`
		_ = stm.AtomicallyGated(nil, tm, false, nil, func(inner stm.Tx) error { return nil }) // want `starts a nested transaction`
		return nil
	})
}

// Every Atomically-family entry point roots a transaction body: the purity
// discipline applies unchanged, and starting any other member of the family
// inside one is still a nesting violation.
func gatedBody(tm stm.TM) {
	_ = stm.AtomicallyGated(nil, tm, false, nil, func(tx stm.Tx) error {
		fmt.Println("attempt") // want `calls fmt.Println`
		_ = stm.AtomicallyCtx(nil, tm, false, func(inner stm.Tx) error { return nil }) // want `starts a nested transaction`
		return nil
	})
}

func selectsAndRanges(tm stm.TM, ch chan int) {
	_ = stm.Atomically(tm, false, func(tx stm.Tx) error {
		select { // want `blocks in a select statement`
		case <-ch: // want `performs a channel receive`
		default:
		}
		for range ch { // want `ranges over a channel`
			break
		}
		return nil
	})
}

func suppressed(tm stm.TM) {
	_ = stm.Atomically(tm, false, func(tx stm.Tx) error {
		//twm:allow txpurity deliberate debug output while bisecting
		fmt.Println("allowed")
		runtime.Gosched() //twm:allow txpurity scheduling yield, same cost on every engine
		return nil
	})
}

// A directive that names no analyzer, or that has nothing to suppress on its
// line or the line below, is reported itself.
func staleAllows(tm stm.TM) {
	_ = stm.Atomically(tm, false, func(tx stm.Tx) error {
		fmt.Println("x") //twm:allow txpurty misspelled // want `names no analyzer \("txpurty"\)` `calls fmt.Println`
		return nil //twm:allow txpurity nothing impure here // want `//twm:allow txpurity suppresses no diagnostic`
	})
}

//twm:allow // want `names no analyzer`
func noAnalyzer() {}

func negatives(tm stm.TM, x *stm.TVar[int], sink *[]int) {
	_ = stm.Atomically(tm, false, func(tx stm.Tx) error {
		v := x.Get(tx)
		x.Set(tx, v+1)
		pureHelper(tx, x)
		*sink = append((*sink)[:0], v) // captured-state reset per attempt is legal
		_ = atomic.LoadUint64(&counter)
		return nil
	})
}

func pureHelper(tx stm.Tx, x *stm.TVar[int]) { x.Set(tx, x.Get(tx)*2) }

func work() {}

func logIt() { fmt.Printf("done\n") }

func deep() { logIt() }
