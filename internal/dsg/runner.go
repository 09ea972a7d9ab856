package dsg

import (
	"sync"

	"repro/internal/stm"
)

// RunOptions configures a randomized serializability check.
type RunOptions struct {
	Vars       int     // number of shared variables (default 8)
	Goroutines int     // concurrent workers (default 6)
	TxPerG     int     // committed transactions per worker (default 150)
	ReadOnlyP  float64 // fraction of read-only transactions (default 0.3)
	Seed       uint64  // base RNG seed (default 1)
}

func (o *RunOptions) defaults() {
	if o.Vars == 0 {
		o.Vars = 8
	}
	if o.Goroutines == 0 {
		o.Goroutines = 6
	}
	if o.TxPerG == 0 {
		o.TxPerG = 150
	}
	if o.ReadOnlyP == 0 {
		o.ReadOnlyP = 0.3
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// TB is the subset of testing.TB the oracle reports through; *testing.T
// satisfies it, and cmd/twm-verify adapts it for CLI soak runs.
type TB interface {
	Helper()
	Errorf(format string, args ...any)
	Fatalf(format string, args ...any)
	Logf(format string, args ...any)
	Failed() bool
}

// CheckRandom drives a randomized concurrent history against tm and asserts
// that the resulting Direct Serialization Graph is acyclic. The engine must
// implement stm.HistoryRecording and have been created fresh (history is
// enabled here, before any variable exists).
func CheckRandom(t TB, tm stm.TM, opts RunOptions) {
	t.Helper()
	hr, ok := tm.(stm.HistoryRecording)
	if !ok {
		t.Fatalf("engine %s does not support history recording", tm.Name())
	}
	opts.defaults()
	hr.EnableHistory()

	vars := make([]stm.Var, opts.Vars)
	initial := make([]int64, opts.Vars)
	for i := range vars {
		vars[i] = tm.NewVar(int64(0))
	}

	var mu sync.Mutex
	var records []TxRecord

	var wg sync.WaitGroup
	for g := 0; g < opts.Goroutines; g++ {
		wg.Add(1)
		go func(gid int) {
			defer wg.Done()
			r := rng(opts.Seed + uint64(gid)*7919)
			local := make([]TxRecord, 0, opts.TxPerG)
			for i := 0; i < opts.TxPerG; i++ {
				id := TxID(gid*1_000_000 + i + 1)
				ro := r.float() < opts.ReadOnlyP
				rec := TxRecord{ID: id, ReadOnly: ro}
				err := stm.Atomically(tm, ro, func(tx stm.Tx) error {
					// Reset per attempt: only the committed attempt counts.
					rec.Reads = make(map[int]int64)
					rec.Writes = make(map[int]int64)
					nReads := 1 + r.intn(3)
					for k := 0; k < nReads; k++ {
						v := r.intn(opts.Vars)
						if _, wrote := rec.Writes[v]; wrote {
							continue
						}
						rec.Reads[v] = tx.Read(vars[v]).(int64)
					}
					if !ro {
						nWrites := 1 + r.intn(2)
						for k := 0; k < nWrites; k++ {
							v := r.intn(opts.Vars)
							val := int64(id)*100 + int64(v)
							tx.Write(vars[v], val) //twm:allow abortshape history generator explores upgrade windows as part of the schedule space
							rec.Writes[v] = val
						}
					}
					return nil
				})
				if err != nil {
					t.Errorf("tx %d: %v", id, err)
					return
				}
				local = append(local, rec)
			}
			mu.Lock()
			records = append(records, local...)
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	graph, err := Build(hr, vars, initial, records)
	if err != nil {
		t.Fatalf("%s: building DSG: %v", tm.Name(), err)
	}
	if cycle := graph.FindCycle(); cycle != nil {
		t.Fatalf("%s: non-serializable history: %s", tm.Name(), FormatCycle(cycle))
	}
	t.Logf("%s: DSG acyclic over %d transactions, %d edges", tm.Name(), graph.Nodes(), graph.Edges())
}

// rng is a tiny xorshift generator; workloads must not depend on math/rand's
// global lock.
type xorshift struct{ s uint64 }

func rng(seed uint64) *xorshift {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &xorshift{s: seed}
}

func (x *xorshift) next() uint64 {
	x.s ^= x.s << 13
	x.s ^= x.s >> 7
	x.s ^= x.s << 17
	return x.s
}

func (x *xorshift) intn(n int) int { return int(x.next() % uint64(n)) }

func (x *xorshift) float() float64 { return float64(x.next()%1_000_000) / 1_000_000 }
