// Command twm-verify soak-tests an engine's safety properties from the
// command line: it runs randomized concurrent histories and checks each one
// against Adya's Direct Serialization Graph (the §3.1/§4 correctness
// criterion), plus application-level invariant checks (conserved bank
// totals, exact counters). It is the standalone face of the internal/dsg
// oracle used by the test suite — useful for long-running verification on
// new hardware or after modifications.
//
// Usage:
//
//	twm-verify [-engine all] [-rounds 50] [-vars 6] [-goroutines 8]
//	           [-tx 150] [-ro 0.2] [-procs 8] [-yield] [-seed 1]
//
// Exit status is non-zero if any history is non-serializable or any
// invariant breaks; the offending cycle is printed.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"

	"repro/internal/bench"
	"repro/internal/dsg"
	"repro/internal/engines"
	"repro/internal/stm"
	"repro/internal/xrand"
)

func main() {
	engine := flag.String("engine", "all", "engine to verify, or 'all'")
	rounds := flag.Int("rounds", 50, "randomized histories per engine")
	vars := flag.Int("vars", 6, "shared variables per history")
	goroutines := flag.Int("goroutines", 8, "concurrent workers per history")
	txPerG := flag.Int("tx", 150, "committed transactions per worker")
	roP := flag.Float64("ro", 0.2, "fraction of read-only transactions")
	procs := flag.Int("procs", 8, "GOMAXPROCS during verification (oversubscription exposes more interleavings)")
	yield := flag.Bool("yield", true, "inject a scheduler yield per barrier")
	seed := flag.Uint64("seed", 1, "base seed")
	flag.Parse()

	runtime.GOMAXPROCS(*procs)

	names := engines.Names()
	if *engine != "all" {
		if _, err := engines.New(*engine); err != nil {
			fmt.Fprintln(os.Stderr, "twm-verify:", err)
			os.Exit(2)
		}
		names = []string{*engine}
	}

	failed := false
	for _, name := range names {
		fmt.Printf("%-12s ", name)
		ok := verifyEngine(name, *rounds, dsg.RunOptions{
			Vars:       *vars,
			Goroutines: *goroutines,
			TxPerG:     *txPerG,
			ReadOnlyP:  *roP,
			Seed:       *seed,
		}, *yield)
		if ok {
			fmt.Println("OK")
		} else {
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// verifyEngine runs DSG rounds plus invariant checks, printing progress dots.
func verifyEngine(name string, rounds int, opts dsg.RunOptions, yield bool) bool {
	for round := 0; round < rounds; round++ {
		tm := engines.MustNew(name)
		var target stm.TM = tm
		if yield {
			target = bench.WithYield(tm, 1)
		}
		opts.Seed += uint64(round)*977 + 1
		rep := &reporter{}
		func() {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(verifyAbort); !ok {
						panic(r)
					}
				}
			}()
			dsg.CheckRandom(rep, target, opts)
		}()
		if rep.failed {
			fmt.Printf("\n  round %d FAILED:\n%s\n", round, rep.message)
			return false
		}
		if err := invariantRound(name, yield, opts.Seed); err != nil {
			fmt.Printf("\n  round %d invariant FAILED: %v\n", round, err)
			return false
		}
		if (round+1)%10 == 0 {
			fmt.Print(".")
		}
	}
	return true
}

// invariantRound runs a quick bank-conservation and exact-counter check.
func invariantRound(name string, yield bool, seed uint64) error {
	inner := engines.MustNew(name)
	var tm stm.TM = inner
	if yield {
		tm = bench.WithYield(inner, 1)
	}
	const accounts, total = 6, 600
	accs := make([]stm.Var, accounts)
	for i := range accs {
		accs[i] = tm.NewVar(100)
	}
	counter := tm.NewVar(0)
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	increments := 0
	var mu sync.Mutex
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(r *xrand.Rand) {
			defer wg.Done()
			local := 0
			for i := 0; i < 100; i++ {
				from, to := r.Intn(accounts), r.Intn(accounts)
				if err := stm.Atomically(tm, false, func(tx stm.Tx) error {
					if from != to {
						f := tx.Read(accs[from]).(int)
						if f >= 10 {
							tx.Write(accs[from], f-10)
							tx.Write(accs[to], tx.Read(accs[to]).(int)+10)
						}
					}
					tx.Write(counter, tx.Read(counter).(int)+1)
					return nil
				}); err != nil {
					errs <- err
					return
				}
				local++
			}
			mu.Lock()
			increments += local
			mu.Unlock()
		}(xrand.New(seed + uint64(g)))
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
	}
	return stm.Atomically(tm, true, func(tx stm.Tx) error {
		sum := 0
		for _, a := range accs {
			sum += tx.Read(a).(int)
		}
		if sum != total {
			return fmt.Errorf("bank total %d, want %d", sum, total)
		}
		if got := tx.Read(counter).(int); got != increments {
			return fmt.Errorf("counter %d, want %d", got, increments)
		}
		return nil
	})
}

// reporter adapts dsg.CheckRandom's testing.TB-shaped interface to CLI use.
type reporter struct {
	failed  bool
	message string
}

func (r *reporter) Helper() {}
func (r *reporter) Errorf(format string, args ...any) {
	r.failed = true
	r.message += fmt.Sprintf("  "+format+"\n", args...)
}
func (r *reporter) Fatalf(format string, args ...any) {
	r.Errorf(format, args...)
	panic(verifyAbort{})
}
func (r *reporter) Logf(string, ...any) {}
func (r *reporter) Failed() bool        { return r.failed }

type verifyAbort struct{}
