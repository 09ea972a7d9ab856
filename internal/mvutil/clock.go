package mvutil

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
)

// MaxClockShards bounds the shard count of a ClockDomain. 64 keeps the shard
// masks in a single uint64 word and the whole cell array at 8KB — small enough
// to embed in an engine by value, large enough that the per-shard commit rate
// is a rounding error of the global one at any realistic core count.
const MaxClockShards = 64

// clockCell is one shard's commit clock on its own cache line. The padding is
// the point: an unpadded array of counters ships every increment to every
// other shard's core as false sharing (BenchmarkClockContention measures the
// gap), which would re-create exactly the global-clock wall the sharding is
// meant to remove.
type clockCell struct {
	v atomic.Uint64
	_ [120]byte
}

// ClockDomain is a partitioned commit clock: K independent per-shard cells
// plus a cross-shard fence. It is the mvutil primitive behind the engines'
// Options.ClockShards mode.
//
// The contract the engines build on:
//
//   - Numbers drawn from different shards live on unrelated number lines.
//     They are only ever compared between versions of the same variable, and
//     every variable belongs to exactly one shard, so per-variable version
//     orders, read stamps and snapshot components all stay within one domain.
//   - A transaction whose footprint (reads ∪ writes) stays inside one shard
//     advances that shard's cell with a plain fetch-add — no CAS loop, no
//     fence, no contact with any other shard's cache line. That is the
//     zero-coordination fast path.
//   - A transaction whose footprint spans shards must draw its write version
//     inside the fence (AdvanceCross): take xmu, flip xseq odd, max-fold the
//     touched cells into wv = max+1, raise every touched cell to wv
//     (GV4-style CAS-max — a concurrent single-shard fetch-add may win the
//     race, in which case the raise retries and the retry count is surfaced
//     as a stat), flip xseq even, release. The fence is what makes vector
//     snapshots sound; see Snapshot.
//
// Snapshot consistency. A vector read is a consistent cut iff no causal chain
// of commits has its first clock advance after our read of its shard and its
// last advance before our read of another shard. Within one shard the cell is
// a single atomic — trivially consistent. Across shards, causality can only
// hop shard boundaries through a transaction with a cross-shard footprint
// (a single-shard transaction reads and writes one shard only, so a chain of
// them never changes shard). Every such transaction advances clocks inside
// the fence, and its advance sits timewise between the chain's first and last
// advances. Therefore: if a reader observes xseq even and unchanged around
// its cell reads, no fence — and hence no shard-hopping advance — overlapped
// the read window, and the cut is consistent. Readers that keep losing the
// seqlock race fall back to reading under xmu, which excludes fences by mutual
// exclusion; plain single-shard fetch-adds may still land mid-read, but by the
// argument above they cannot make the cut inconsistent.
type ClockDomain struct {
	k     int
	mask  uint64
	_     [40]byte // keep cell 0 off the header's cache line
	cells [MaxClockShards]clockCell
	xseq  atomic.Uint64 // fence seqlock: odd while a cross-shard draw is in flight
	_     [120]byte
	xmu   sync.Mutex
}

// Init sizes the domain to k shards (rounded up to a power of two, clamped to
// [1, MaxClockShards]) and seeds every cell with initial. It returns the
// effective shard count. Engines seed with 1 for the same reason the scalar
// clock started at 1: a variable's zero read stamp must never satisfy a
// "stamp >= snapshot" check in any shard's domain.
func (c *ClockDomain) Init(k int, initial uint64) int {
	if k < 1 {
		k = 1
	}
	if k > MaxClockShards {
		k = MaxClockShards
	}
	if k&(k-1) != 0 {
		k = 1 << bits.Len(uint(k))
	}
	c.k = k
	c.mask = uint64(k - 1)
	for s := 0; s < k; s++ {
		c.cells[s].v.Store(initial)
	}
	return k
}

// Shards returns the effective shard count.
func (c *ClockDomain) Shards() int { return c.k }

// ShardOf maps a variable id onto a shard with the default round-robin
// policy. Engines may override it with a pluggable sharder.
func (c *ClockDomain) ShardOf(id uint64) int { return int((id - 1) & c.mask) }

// Load returns shard s's clock.
func (c *ClockDomain) Load(s int) uint64 { return c.cells[s].v.Load() }

// Add advances shard s's clock by delta and returns the new value. This is
// the single-shard commit path: one uncontended-by-construction fetch-add.
func (c *ClockDomain) Add(s int, delta uint64) uint64 { return c.cells[s].v.Add(delta) }

// Raise CAS-maxes shard s's cell to at least v and reports how many CAS
// attempts lost a race on the way (0 on the uncontended path). Used by the
// cross-shard draw and by recovery fast-forward.
func (c *ClockDomain) Raise(s int, v uint64) (retries int) {
	for {
		cur := c.cells[s].v.Load()
		if cur >= v {
			return retries
		}
		if c.cells[s].v.CompareAndSwap(cur, v) {
			return retries
		}
		retries++
	}
}

// AdvanceCross draws one write version covering every shard set in wmask:
// wv = 1 + max over the touched cells, then every touched cell is raised to
// wv, all inside the fence. The returned wv is strictly greater than any
// number previously drawn from any touched shard, and casRetries counts the
// GV4-style raise attempts that lost to concurrent single-shard fetch-adds.
func (c *ClockDomain) AdvanceCross(wmask uint64) (wv uint64, casRetries int) {
	c.xmu.Lock()
	c.xseq.Add(1) // odd: fence open
	var max uint64
	for m := wmask; m != 0; m &= m - 1 {
		s := bits.TrailingZeros64(m)
		if v := c.cells[s].v.Load(); v > max {
			max = v
		}
	}
	wv = max + 1
	for m := wmask; m != 0; m &= m - 1 {
		casRetries += c.Raise(bits.TrailingZeros64(m), wv)
	}
	c.xseq.Add(1) // even: fence closed
	c.xmu.Unlock()
	return wv, casRetries
}

// FenceSample spins until no fence is in flight and returns the (even) fence
// sequence. Pair with FenceStable to bracket a set of cell reads.
func (c *ClockDomain) FenceSample() uint64 {
	for i := 0; ; i++ {
		x := c.xseq.Load()
		if x&1 == 0 {
			return x
		}
		if i&15 == 15 {
			runtime.Gosched()
		}
	}
}

// FenceStable reports whether no fence started since x0 was sampled. If it
// returns true, every cell value read between FenceSample and this call
// belongs to one consistent cut (see the type comment's argument).
func (c *ClockDomain) FenceStable(x0 uint64) bool { return c.xseq.Load() == x0 }

// snapshotSpins bounds the optimistic seqlock attempts before Snapshot falls
// back to reading under the fence mutex. Cross-shard draws are rare relative
// to snapshot reads, so the fallback almost never runs; it exists so that a
// begin-storm cannot livelock behind a commit-storm of cross-shard writers.
const snapshotSpins = 4

// Snapshot appends one consistent vector cut (all K cells) to dst and returns
// it. dst is reused across calls to stay allocation-free on the hot path.
func (c *ClockDomain) Snapshot(dst []uint64) []uint64 {
	dst = dst[:0]
	if c.k == 1 {
		return append(dst, c.cells[0].v.Load())
	}
	for attempt := 0; attempt < snapshotSpins; attempt++ {
		x0 := c.xseq.Load()
		if x0&1 != 0 {
			runtime.Gosched()
			continue
		}
		dst = dst[:0]
		for s := 0; s < c.k; s++ {
			dst = append(dst, c.cells[s].v.Load())
		}
		if c.xseq.Load() == x0 {
			return dst
		}
	}
	c.xmu.Lock()
	dst = dst[:0]
	for s := 0; s < c.k; s++ {
		dst = append(dst, c.cells[s].v.Load())
	}
	c.xmu.Unlock()
	return dst
}

// Max returns the largest cell value. It is the recovery-seeding upper bound:
// raising every cell to at least Max of a recovered domain guarantees new
// commits in any shard serialize after everything replayed.
func (c *ClockDomain) Max() uint64 {
	var max uint64
	for s := 0; s < c.k; s++ {
		if v := c.cells[s].v.Load(); v > max {
			max = v
		}
	}
	return max
}

// Sum returns the sum of all cells — a monotone progress measure (each commit
// strictly increases it) that equals the scalar clock at K=1. Health
// watchdogs use it where they used the scalar clock.
func (c *ClockDomain) Sum() uint64 {
	var sum uint64
	for s := 0; s < c.k; s++ {
		sum += c.cells[s].v.Load()
	}
	return sum
}
