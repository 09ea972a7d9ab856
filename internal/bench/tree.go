package bench

import (
	"repro/internal/ds/rbtree"
	"repro/internal/stm"
	"repro/internal/xrand"
)

// TreeConfig parameterizes the ordered-map microbenchmark on the red-black
// tree (the IntSet-RBTree companion of the paper's skip-list experiment).
type TreeConfig struct {
	Elements  int     // initial size
	KeyRange  int64   // keys drawn from [0, KeyRange)
	UpdatePct float64 // fraction of update transactions
	ZipfS     float64 // access skew (0 = uniform)
	Seed      uint64
}

// DefaultTree returns the container-sized tree configuration.
func DefaultTree() TreeConfig {
	return TreeConfig{Elements: 2_000, KeyRange: 4_000, UpdatePct: 0.25, Seed: 1}
}

// TreeMicro builds the tree workload: lookups plus insert/delete pairs, with
// optional Zipfian key skew.
func TreeMicro(cfg TreeConfig) Micro {
	return Micro{
		Name: "tree",
		Prepare: func(tm stm.TM, threads int) (MicroOp, error) {
			m := rbtree.New(tm)
			r := xrand.New(cfg.Seed)
			const batch = 128
			for done := 0; done < cfg.Elements; {
				if err := stm.Atomically(tm, false, func(tx stm.Tx) error {
					for i := 0; i < batch && done < cfg.Elements; i++ {
						if m.Put(tx, r.Int63()%cfg.KeyRange, done) {
							done++
						}
					}
					return nil
				}); err != nil {
					return nil, err
				}
			}
			var mkKey func(r *xrand.Rand) int64
			if cfg.ZipfS > 0 {
				// The CDF table is immutable after build and shared by all
				// workers, each sampling through its own RNG stream.
				z := xrand.NewZipf(int(cfg.KeyRange), cfg.ZipfS)
				mkKey = func(r *xrand.Rand) int64 { return int64(z.Next(r)) }
			} else {
				mkKey = func(r *xrand.Rand) int64 { return r.Int63() % cfg.KeyRange }
			}
			op := func(_ int, r *xrand.Rand) {
				k := mkKey(r)
				if r.Float64() < cfg.UpdatePct {
					insert := r.Bool(0.5)
					_ = stm.Atomically(tm, false, func(tx stm.Tx) error {
						if insert {
							m.Put(tx, k, k)
						} else {
							m.Delete(tx, k)
						}
						return nil
					})
				} else {
					_ = stm.Atomically(tm, true, func(tx stm.Tx) error {
						m.Contains(tx, k)
						return nil
					})
				}
			}
			return op, nil
		},
	}
}
