// Package stmtest is a conformance suite run against every engine in this
// repository. It checks the transactional semantics all five STMs must share
// (atomicity, isolation, serializability-sensitive invariants) and the
// per-engine guarantees the TWM paper relies on (abort-free read-only
// transactions for the multi-version engines).
package stmtest

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/stm"
)

// Options selects the optional guarantees to verify.
type Options struct {
	// RONeverAborts asserts that read-only transactions are never restarted
	// (mv-permissiveness): true for TWM and JVSTM.
	RONeverAborts bool
	// NotOpaque relaxes the in-flight snapshot-consistency battery: engines
	// that are only probabilistically opaque (AVSTM — a doomed transaction
	// can observe an inconsistent state before its commit-time abort) run
	// every other battery but skip the strict in-flight assertion.
	NotOpaque bool
}

// Run executes the whole conformance battery against fresh TMs from factory.
func Run(t *testing.T, factory func() stm.TM, opts Options) {
	CheckGoroutines(t)
	t.Run("SequentialBasics", func(t *testing.T) { sequentialBasics(t, factory()) })
	t.Run("ReadYourWrites", func(t *testing.T) { readYourWrites(t, factory()) })
	t.Run("IsolationUncommitted", func(t *testing.T) { isolationUncommitted(t, factory()) })
	t.Run("UserAbort", func(t *testing.T) { userAbort(t, factory()) })
	t.Run("CounterExact", func(t *testing.T) { counterExact(t, factory()) })
	t.Run("BankInvariant", func(t *testing.T) { bankInvariant(t, factory()) })
	t.Run("SnapshotConsistency", func(t *testing.T) { snapshotConsistency(t, factory()) })
	t.Run("NoLostUpdate", func(t *testing.T) { noLostUpdate(t, factory()) })
	t.Run("WriteSkew", func(t *testing.T) { writeSkew(t, factory()) })
	if !opts.NotOpaque {
		t.Run("InflightConsistency", func(t *testing.T) { inflightConsistency(t, factory()) })
	}
	t.Run("Pipeline", func(t *testing.T) { pipeline(t, factory()) })
	if opts.RONeverAborts {
		t.Run("ROAbortFree", func(t *testing.T) { roAbortFree(t, factory()) })
	}
}

func sequentialBasics(t *testing.T, tm stm.TM) {
	x := stm.NewTVar(tm, 41)
	if err := stm.Atomically(tm, false, func(tx stm.Tx) error {
		x.Set(tx, x.Get(tx)+1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := stm.Atomically(tm, true, func(tx stm.Tx) error {
		if got := x.Get(tx); got != 42 {
			t.Errorf("x = %d, want 42", got)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	snap := tm.Stats().Snapshot()
	if snap.Commits != 2 || snap.ROCommits != 1 {
		t.Fatalf("stats = %+v", snap)
	}
}

func readYourWrites(t *testing.T, tm stm.TM) {
	x := stm.NewTVar(tm, "a")
	err := stm.Atomically(tm, false, func(tx stm.Tx) error {
		x.Set(tx, "b")
		if got := x.Get(tx); got != "b" {
			t.Errorf("read-your-write = %q", got)
		}
		x.Set(tx, "c")
		if got := x.Get(tx); got != "c" {
			t.Errorf("second read-your-write = %q", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func isolationUncommitted(t *testing.T, tm stm.TM) {
	x := stm.NewTVar(tm, 0)
	tx := tm.Begin(false)
	tx.Write(x.Raw(), 99)
	// A fully separate transaction must not see the buffered write.
	if err := stm.Atomically(tm, true, func(other stm.Tx) error {
		if got := x.Get(other); got != 0 {
			t.Errorf("dirty read: %d", got)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	tm.Abort(tx)
}

func userAbort(t *testing.T, tm stm.TM) {
	x := stm.NewTVar(tm, 7)
	boom := errors.New("boom")
	if err := stm.Atomically(tm, false, func(tx stm.Tx) error {
		x.Set(tx, 8)
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if err := stm.Atomically(tm, true, func(tx stm.Tx) error {
		if got := x.Get(tx); got != 7 {
			t.Errorf("aborted write leaked: %d", got)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func counterExact(t *testing.T, tm stm.TM) {
	const goroutines, perG = 6, 150
	x := stm.NewTVar(tm, 0)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if err := stm.Atomically(tm, false, func(tx stm.Tx) error {
					x.Set(tx, x.Get(tx)+1)
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := stm.Atomically(tm, true, func(tx stm.Tx) error {
		if got := x.Get(tx); got != goroutines*perG {
			t.Errorf("counter = %d, want %d", got, goroutines*perG)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// bankInvariant moves money between accounts under concurrent read-only
// audits; every audit must observe the conserved total.
func bankInvariant(t *testing.T, tm stm.TM) {
	const accounts = 8
	const total = accounts * 100
	accs := make([]*stm.TVar[int], accounts)
	for i := range accs {
		accs[i] = stm.NewTVar(tm, 100)
	}
	stop := make(chan struct{})
	var transfers sync.WaitGroup
	for g := 0; g < 3; g++ {
		transfers.Add(1)
		go func(seed uint64) {
			defer transfers.Done()
			r := seed*2654435761 + 11
			next := func(n int) int {
				r ^= r << 13
				r ^= r >> 7
				r ^= r << 17
				return int(r % uint64(n))
			}
			for i := 0; i < 300; i++ {
				from, to := next(accounts), next(accounts)
				if from == to {
					continue
				}
				amt := 1 + next(20)
				if err := stm.Atomically(tm, false, func(tx stm.Tx) error {
					f := accs[from].Get(tx)
					if f < amt {
						return nil // insufficient funds; commit read-only
					}
					accs[from].Set(tx, f-amt)
					accs[to].Set(tx, accs[to].Get(tx)+amt)
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(uint64(g + 1))
	}
	var auditor sync.WaitGroup
	auditor.Add(1)
	go func() {
		defer auditor.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			// The invariant is asserted only for the attempt that commits:
			// engines guarantee serializability of committed transactions;
			// in-flight guarantees are covered (per engine capability) by
			// the InflightConsistency battery.
			sum := 0
			if err := stm.Atomically(tm, true, func(tx stm.Tx) error {
				sum = 0
				for _, a := range accs {
					sum += a.Get(tx)
				}
				return nil
			}); err != nil {
				t.Error(err)
				return
			}
			if sum != total {
				t.Errorf("audit: total = %d, want %d", sum, total)
			}
		}
	}()
	transfers.Wait()
	close(stop)
	auditor.Wait()
	if err := stm.Atomically(tm, true, func(tx stm.Tx) error {
		sum := 0
		for _, a := range accs {
			sum += a.Get(tx)
		}
		if sum != total {
			t.Errorf("final total = %d, want %d", sum, total)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// snapshotConsistency keeps x+y constant through paired updates while readers
// verify the invariant.
func snapshotConsistency(t *testing.T, tm stm.TM) {
	const pairSum = 1000
	x := stm.NewTVar(tm, 600)
	y := stm.NewTVar(tm, 400)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 400; i++ {
			delta := (i % 7) - 3
			if err := stm.Atomically(tm, false, func(tx stm.Tx) error {
				x.Set(tx, x.Get(tx)+delta)
				y.Set(tx, y.Get(tx)-delta)
				return nil
			}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 400; i++ {
		got := 0
		if err := stm.Atomically(tm, true, func(tx stm.Tx) error {
			got = x.Get(tx) + y.Get(tx)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if got != pairSum {
			t.Errorf("committed snapshot x+y = %d, want %d", got, pairSum)
		}
	}
	wg.Wait()
}

func noLostUpdate(t *testing.T, tm stm.TM) {
	// Two overlapping read-modify-writes driven by hand: whichever commits
	// second must either abort or have seen the first.
	x := stm.NewTVar(tm, 0)
	committed := 0
	for i := 0; i < 50; i++ {
		t1 := tm.Begin(false)
		t2 := tm.Begin(false)
		v1, retry1 := tryRead(t1, x)
		v2, retry2 := tryRead(t2, x)
		if !retry1 {
			t1.Write(x.Raw(), v1+1)
			if tm.Commit(t1) {
				committed++
			}
		} else {
			tm.Abort(t1)
		}
		if !retry2 {
			t2.Write(x.Raw(), v2+1)
			if tm.Commit(t2) {
				committed++
			}
		} else {
			tm.Abort(t2)
		}
	}
	if err := stm.Atomically(tm, true, func(tx stm.Tx) error {
		if got := x.Get(tx); got != committed {
			t.Errorf("x = %d but %d increments committed (lost update)", got, committed)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// tryRead performs a read that may raise an engine retry signal.
func tryRead(tx stm.Tx, v *stm.TVar[int]) (val int, retried bool) {
	defer func() {
		if recover() != nil {
			retried = true
		}
	}()
	return v.Get(tx), false
}

// writeSkew runs the classic snapshot-isolation anomaly: both transactions
// read x and y and each zeroes one of them, guarded by x+y >= limit. Under
// any serializable execution at most one guard can pass per round.
func writeSkew(t *testing.T, tm stm.TM) {
	for round := 0; round < 50; round++ {
		x := stm.NewTVar(tm, 1)
		y := stm.NewTVar(tm, 1)

		t1 := tm.Begin(false)
		t2 := tm.Begin(false)
		v1x, r1 := tryRead(t1, x)
		v1y, r1b := tryRead(t1, y)
		v2x, r2 := tryRead(t2, x)
		v2y, r2b := tryRead(t2, y)

		ok1, ok2 := false, false
		if !r1 && !r1b && v1x+v1y >= 2 {
			t1.Write(x.Raw(), v1x-2)
			ok1 = tm.Commit(t1)
		} else {
			tm.Abort(t1)
		}
		if !r2 && !r2b && v2x+v2y >= 2 {
			t2.Write(y.Raw(), v2y-2)
			ok2 = tm.Commit(t2)
		} else {
			tm.Abort(t2)
		}
		if ok1 && ok2 {
			t.Fatalf("round %d: write skew admitted (both guarded writes committed)", round)
		}
	}
}

// roAbortFree verifies mv-permissiveness: read-only transactions commit on
// the first attempt even under a write-heavy load.
func roAbortFree(t *testing.T, tm stm.TM) {
	vars := make([]*stm.TVar[int], 6)
	for i := range vars {
		vars[i] = stm.NewTVar(tm, 0)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = stm.Atomically(tm, false, func(tx stm.Tx) error {
				for _, v := range vars {
					v.Set(tx, i)
				}
				return nil
			})
		}
	}()
	for i := 0; i < 400; i++ {
		tx := tm.Begin(true)
		first := vars[0].Get(tx)
		for _, v := range vars[1:] {
			if got := v.Get(tx); got != first {
				t.Errorf("torn read-only snapshot: %d vs %d", first, got)
			}
		}
		if !tm.Commit(tx) {
			t.Fatalf("read-only transaction aborted (mv-permissiveness violated)")
		}
	}
	close(stop)
	wg.Wait()
}
