// Package genome is the STAMP gene-sequencing benchmark: reassemble a gene
// from overlapping segments. Phase 1 deduplicates the sampled segments into a
// transactional hash set; phase 2 links segments whose (length-1)-overlap
// matches, claiming both ends transactionally; phase 3 walks the linked chain
// and reconstructs the gene.
//
// The generated gene has unique (segLength-1)-grams, so the overlap graph is
// a single chain and the reconstruction must reproduce the input exactly —
// a strong end-to-end self-check. The paper lists genome among the
// benchmarks with real time-warp opportunities: segment claims near the end
// of the table commute with claims near the front, but classic validation
// aborts one of them.
package genome

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/ds/hashmap"
	"repro/internal/stamp"
	"repro/internal/stm"
	"repro/internal/xrand"
)

// Params configures a genome instance.
type Params struct {
	GeneLength int // bases in the gene
	SegLength  int // bases per segment
	Segments   int // sampled segments (duplicates expected)
	// Step is the sampling stride: windows start at multiples of Step
	// (default 1). With Step > 1, the maximal overlap between consecutive
	// windows is SegLength-Step, so the multi-round matching loop (overlap
	// lengths from SegLength-1 downward, as in STAMP) only finds links in a
	// lower round.
	Step int
	Seed uint64
}

// Default returns the benchmark-sized configuration.
func Default() Params {
	return Params{GeneLength: 1 << 12, SegLength: 16, Segments: 1 << 13, Step: 2, Seed: 1}
}

// Small returns a test-sized instance.
func Small() Params {
	return Params{GeneLength: 256, SegLength: 8, Segments: 512, Seed: 9}
}

// segment is one deduplicated segment with transactional chain links.
type segment struct {
	data []byte
	next stm.Var // *segment: successor in the overlap chain
	prev stm.Var // *segment: predecessor (claim marker)
}

// Bench is one benchmark instance.
type Bench struct {
	p    Params
	gene []byte

	sampled [][]byte // phase-1 input, with duplicates

	dedup    *hashmap.Map // hash(segment) -> *segment
	segsMu   sync.Mutex
	segments []*segment // deduplicated segments (appended in phase 1)

	prefixIdx []map[uint64]*segment // per overlap length: prefix hash -> segment (immutable after phase 1)
	linked    atomic.Int64
	rounds    int // overlap rounds that found at least one link

	result []byte
}

// New returns a genome workload.
func New(p Params) *Bench { return &Bench{p: p} }

// Name implements stamp.Workload.
func (b *Bench) Name() string { return "genome" }

// hashBytes is FNV-1a (inlined to keep workloads dependency-free).
func hashBytes(s []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range s {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// Setup implements stamp.Workload: build a gene whose (SegLength-1)-grams are
// all distinct, then sample segments (all consecutive windows for coverage,
// plus random duplicates up to Segments).
func (b *Bench) Setup(tm stm.TM) error {
	if b.p.Step <= 0 {
		b.p.Step = 1
	}
	if b.p.Step >= b.p.SegLength {
		return fmt.Errorf("genome: Step %d must be below SegLength %d", b.p.Step, b.p.SegLength)
	}
	r := xrand.New(b.p.Seed)
	// Uniqueness of the shortest overlap used guarantees a single chain.
	k := b.p.SegLength - b.p.Step
	for attempt := 0; ; attempt++ {
		if attempt > 64 {
			return fmt.Errorf("genome: could not build gene with unique %d-grams", k)
		}
		gene := make([]byte, b.p.GeneLength)
		for i := range gene {
			gene[i] = byte(r.Intn(256))
		}
		seen := make(map[uint64]bool, b.p.GeneLength)
		unique := true
		for i := 0; i+k <= len(gene); i++ {
			h := hashBytes(gene[i : i+k])
			if seen[h] {
				unique = false
				break
			}
			seen[h] = true
		}
		if unique {
			b.gene = gene
			break
		}
	}

	windows := (b.p.GeneLength-b.p.SegLength)/b.p.Step + 1
	b.sampled = make([][]byte, 0, b.p.Segments+windows)
	for i := 0; i < windows; i++ {
		off := i * b.p.Step
		b.sampled = append(b.sampled, b.gene[off:off+b.p.SegLength])
	}
	for len(b.sampled) < b.p.Segments+windows {
		off := r.Intn(windows) * b.p.Step
		b.sampled = append(b.sampled, b.gene[off:off+b.p.SegLength])
	}
	r.Shuffle(len(b.sampled), func(i, j int) {
		b.sampled[i], b.sampled[j] = b.sampled[j], b.sampled[i]
	})

	b.dedup = hashmap.New(tm, windows*2)
	b.segments = make([]*segment, 0, windows)
	return nil
}

// Run implements stamp.Workload.
func (b *Bench) Run(tm stm.TM, threads int) error {
	if threads < 1 {
		threads = 1
	}
	if err := b.dedupPhase(tm, threads); err != nil {
		return err
	}
	// Build the immutable per-overlap prefix indexes between phases
	// (single-threaded, as STAMP rebuilds its hash tables between phases).
	b.prefixIdx = make([]map[uint64]*segment, b.p.SegLength)
	for l := b.p.SegLength - b.p.Step; l < b.p.SegLength; l++ {
		idx := make(map[uint64]*segment, len(b.segments))
		for _, s := range b.segments {
			idx[hashBytes(s.data[:l])] = s
		}
		b.prefixIdx[l] = idx
	}
	// STAMP's multi-round matching: try the longest overlap first; only the
	// SegLength-Step round can match under strided sampling, so the earlier
	// rounds exercise the lookup-miss path.
	for l := b.p.SegLength - 1; l >= b.p.SegLength-b.p.Step; l-- {
		before := b.linked.Load()
		if err := b.linkPhase(tm, threads, l); err != nil {
			return err
		}
		if b.linked.Load() > before {
			b.rounds++
		}
	}
	return nil
}

// Rounds reports how many overlap rounds produced links.
func (b *Bench) Rounds() int { return b.rounds }

// dedupPhase inserts every sampled segment into the transactional set;
// exactly one insert per distinct segment wins and allocates the node.
func (b *Bench) dedupPhase(tm stm.TM, threads int) error {
	var cursor atomic.Int64
	var wg sync.WaitGroup
	errCh := make(chan error, threads)
	const batch = 32
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(cursor.Add(batch)) - batch
				if lo >= len(b.sampled) {
					return
				}
				hi := lo + batch
				if hi > len(b.sampled) {
					hi = len(b.sampled)
				}
				for _, data := range b.sampled[lo:hi] {
					seg := &segment{data: data, next: tm.NewVar((*segment)(nil)), prev: tm.NewVar((*segment)(nil))}
					var won bool
					if err := stm.Atomically(tm, false, func(tx stm.Tx) error {
						_, won = b.dedup.PutIfAbsent(tx, int64(hashBytes(data)), seg)
						return nil
					}); err != nil {
						errCh <- err
						return
					}
					if won {
						b.segsMu.Lock()
						b.segments = append(b.segments, seg)
						b.segsMu.Unlock()
					}
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return err
	default:
		return nil
	}
}

// linkPhase claims successor links at overlap length l: segment s links to
// the segment whose l-prefix equals s's l-suffix. Both ends are claimed in
// one transaction so the chain stays a partial function in both directions.
func (b *Bench) linkPhase(tm stm.TM, threads int, l int) error {
	var cursor atomic.Int64
	var wg sync.WaitGroup
	errCh := make(chan error, threads)
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(b.segments) {
					return
				}
				s := b.segments[i]
				succ, ok := b.prefixIdx[l][hashBytes(s.data[b.p.SegLength-l:])]
				if !ok || succ == s {
					continue // tail segment (or self-overlap; impossible with unique grams)
				}
				var claimed bool
				if err := stm.Atomically(tm, false, func(tx stm.Tx) error {
					claimed = false
					if tx.Read(s.next) != (*segment)(nil) {
						return nil
					}
					if tx.Read(succ.prev) != (*segment)(nil) {
						return nil
					}
					tx.Write(s.next, succ)
					tx.Write(succ.prev, s)
					claimed = true
					return nil
				}); err != nil {
					errCh <- err
					return
				}
				if claimed {
					b.linked.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return err
	default:
		return nil
	}
}

// Validate implements stamp.Workload: phase 3 — walk the chain from the
// unique head, reconstruct the gene and compare it to the input.
func (b *Bench) Validate(tm stm.TM) error {
	var head *segment
	err := stm.Atomically(tm, true, func(tx stm.Tx) error {
		head = nil
		heads := 0
		for _, s := range b.segments {
			if tx.Read(s.prev) == (*segment)(nil) {
				head = s
				heads++
			}
		}
		if heads != 1 {
			return fmt.Errorf("genome: %d chain heads, want 1", heads)
		}
		out := make([]byte, 0, b.p.GeneLength)
		out = append(out, head.data...)
		n := 1
		for s := head; ; {
			nextV := tx.Read(s.next)
			next, _ := nextV.(*segment)
			if next == nil {
				break
			}
			out = append(out, next.data[b.p.SegLength-b.p.Step:]...)
			s = next
			n++
			if n > len(b.segments) {
				return fmt.Errorf("genome: chain cycle detected")
			}
		}
		if n != len(b.segments) {
			return fmt.Errorf("genome: chain covers %d of %d segments", n, len(b.segments))
		}
		b.result = out
		return nil
	})
	if err != nil {
		return err
	}
	if !bytes.Equal(b.result, b.gene) {
		return fmt.Errorf("genome: reconstructed gene differs from input (len %d vs %d)", len(b.result), len(b.gene))
	}
	return nil
}

var _ stamp.Workload = (*Bench)(nil)
