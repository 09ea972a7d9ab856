// Package kmeans is the STAMP K-means clustering benchmark: points are
// partitioned among workers, each worker finds the nearest center for its
// points and transactionally accumulates them into the next iteration's
// per-cluster sums. Contention is governed by the number of clusters — the
// paper's "low" configuration uses many clusters (accumulator updates spread
// out), "high" uses few (hot accumulators).
package kmeans

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/stamp"
	"repro/internal/stm"
	"repro/internal/xrand"
)

// Params configures a K-means instance.
type Params struct {
	Points    int
	Dims      int
	Clusters  int
	Threshold float64 // stop when fewer than Threshold*Points memberships change
	MaxIters  int
	Seed      uint64
}

// Low returns the paper's low-contention configuration, scaled to
// container-sized inputs (many clusters spread the transactional updates).
func Low() Params {
	return Params{Points: 4096, Dims: 8, Clusters: 40, Threshold: 0.001, MaxIters: 30, Seed: 1}
}

// High returns the high-contention configuration (few, hot clusters).
func High() Params {
	return Params{Points: 4096, Dims: 8, Clusters: 6, Threshold: 0.001, MaxIters: 30, Seed: 1}
}

// Small returns a test-sized instance.
func Small() Params {
	return Params{Points: 300, Dims: 4, Clusters: 5, Threshold: 0.01, MaxIters: 10, Seed: 3}
}

// Bench is one benchmark instance.
type Bench struct {
	name   string
	p      Params
	points [][]float64

	// Transactional accumulators for the next iteration's centers.
	lens []stm.Var   // int: members per cluster
	sums [][]stm.Var // float64 per dimension

	centers    [][]float64 // current centers, updated between iterations
	membership []int       // per-point cluster, owned by the point's worker

	iters     int
	converged bool
}

// New returns a kmeans workload named name (e.g. "kmeans-low").
func New(name string, p Params) *Bench { return &Bench{name: name, p: p} }

// Name implements stamp.Workload.
func (b *Bench) Name() string { return b.name }

// Setup implements stamp.Workload: deterministic points drawn around
// Clusters true centers, plus the transactional accumulators.
func (b *Bench) Setup(tm stm.TM) error {
	r := xrand.New(b.p.Seed)
	trueCenters := make([][]float64, b.p.Clusters)
	for c := range trueCenters {
		trueCenters[c] = make([]float64, b.p.Dims)
		for d := range trueCenters[c] {
			trueCenters[c][d] = r.Float64() * 100
		}
	}
	b.points = make([][]float64, b.p.Points)
	for i := range b.points {
		c := trueCenters[r.Intn(b.p.Clusters)]
		pt := make([]float64, b.p.Dims)
		for d := range pt {
			pt[d] = c[d] + (r.Float64()-0.5)*8
		}
		b.points[i] = pt
	}

	b.lens = make([]stm.Var, b.p.Clusters)
	b.sums = make([][]stm.Var, b.p.Clusters)
	for c := 0; c < b.p.Clusters; c++ {
		b.lens[c] = tm.NewVar(0)
		b.sums[c] = make([]stm.Var, b.p.Dims)
		for d := range b.sums[c] {
			b.sums[c][d] = tm.NewVar(0.0)
		}
	}

	// Initial centers: the first Clusters points (STAMP convention).
	b.centers = make([][]float64, b.p.Clusters)
	for c := range b.centers {
		b.centers[c] = append([]float64(nil), b.points[c%len(b.points)]...)
	}
	b.membership = make([]int, b.p.Points)
	for i := range b.membership {
		b.membership[i] = -1
	}
	return nil
}

func nearest(pt []float64, centers [][]float64) int {
	best, bestD := 0, math.MaxFloat64
	for c, ctr := range centers {
		d := 0.0
		for i := range pt {
			diff := pt[i] - ctr[i]
			d += diff * diff
		}
		if d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// Run implements stamp.Workload.
func (b *Bench) Run(tm stm.TM, threads int) error {
	if threads < 1 {
		threads = 1
	}
	for iter := 0; iter < b.p.MaxIters; iter++ {
		changedTotal := 0
		var mu sync.Mutex
		var wg sync.WaitGroup
		chunk := (len(b.points) + threads - 1) / threads
		var firstErr error
		for w := 0; w < threads; w++ {
			lo, hi := w*chunk, (w+1)*chunk
			if hi > len(b.points) {
				hi = len(b.points)
			}
			if lo >= hi {
				continue
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				changed := 0
				for i := lo; i < hi; i++ {
					c := nearest(b.points[i], b.centers)
					if c != b.membership[i] {
						changed++
						b.membership[i] = c
					}
					pt := b.points[i]
					// The STAMP transaction: fold the point into the next
					// iteration's accumulator for its cluster.
					if err := stm.Atomically(tm, false, func(tx stm.Tx) error {
						tx.Write(b.lens[c], tx.Read(b.lens[c]).(int)+1)
						for d := 0; d < b.p.Dims; d++ {
							tx.Write(b.sums[c][d], tx.Read(b.sums[c][d]).(float64)+pt[d])
						}
						return nil
					}); err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						mu.Unlock()
						return
					}
				}
				mu.Lock()
				changedTotal += changed
				mu.Unlock()
			}(lo, hi)
		}
		wg.Wait()
		if firstErr != nil {
			return firstErr
		}

		// Fold the accumulators into the centers for the next round.
		if err := stm.Atomically(tm, false, func(tx stm.Tx) error {
			for c := 0; c < b.p.Clusters; c++ {
				n := tx.Read(b.lens[c]).(int)
				if n > 0 {
					for d := 0; d < b.p.Dims; d++ {
						b.centers[c][d] = tx.Read(b.sums[c][d]).(float64) / float64(n)
					}
				}
				tx.Write(b.lens[c], 0)
				for d := 0; d < b.p.Dims; d++ {
					tx.Write(b.sums[c][d], 0.0)
				}
			}
			return nil
		}); err != nil {
			return err
		}
		b.iters = iter + 1
		if float64(changedTotal) < b.p.Threshold*float64(len(b.points)) {
			b.converged = true
			break
		}
	}
	return nil
}

// Iterations reports how many rounds ran (for reporting).
func (b *Bench) Iterations() int { return b.iters }

// Validate implements stamp.Workload: every point belongs to its nearest
// center (a fixpoint property once converged) and memberships are complete.
func (b *Bench) Validate(tm stm.TM) error {
	for i, m := range b.membership {
		if m < 0 || m >= b.p.Clusters {
			return fmt.Errorf("kmeans: point %d has invalid membership %d", i, m)
		}
	}
	if b.iters == 0 {
		return fmt.Errorf("kmeans: no iterations ran")
	}
	// The centers must reproduce a sane clustering: average distance of a
	// point to its center must be far below the spread of the centers.
	totalD := 0.0
	for i, pt := range b.points {
		c := b.centers[b.membership[i]]
		d := 0.0
		for k := range pt {
			diff := pt[k] - c[k]
			d += diff * diff
		}
		totalD += math.Sqrt(d)
	}
	avg := totalD / float64(len(b.points))
	if avg > 50 {
		return fmt.Errorf("kmeans: clustering diverged (avg point-center distance %.1f)", avg)
	}
	return nil
}

var _ stamp.Workload = (*Bench)(nil)
