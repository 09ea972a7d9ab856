package mvutil

import "sync/atomic"

// ShardedStamp is a scalable CAS-maximum register for semi-visible read
// stamps (DESIGN.md §12). The plain implementation — one shared atomic
// advanced by every reader — makes each read of a hot variable a write to the
// same cache line, which ping-pongs across every reading core: exactly the
// visible-reader scalability cliff semi-visible reads were meant to avoid.
//
// A ShardedStamp splits the register into StampShards cache-line-padded
// slots. A raiser CAS-maxes only its home shard (a sticky, per-descriptor
// assignment, the same scheme as Stats stripes), so
// concurrent raisers on different shards never touch the same line. An
// observer takes the maximum over all shards; since each shard is
// individually monotone, the maximum is monotone and equals the aggregate
// maximum of every raise that completed before the scan — the only property
// the semi-visible read argument needs (the raise/observe race argument is
// per-location and carries over shard-wise; see DESIGN.md §12).
//
// The type is sized for *contended* stamps: StampShards padded lines are 1
// KiB per instance, far too heavy to embed in every variable. Engines keep a
// single inline atomic stamp per variable and promote it to a ShardedStamp
// only when raisers actually collide (see core's twvar.semiVisibleRead);
// after promotion the inline stamp stays valid and observers fold it into
// the maximum, so no raise is ever lost across the transition.
type ShardedStamp struct {
	shards [StampShards]stampLine
}

// StampShards is the stripe count; must be a power of two (home-shard choice
// masks with StampShards-1).
const StampShards = 16

// stampLine pads each shard out to 128 bytes — two cache lines, the
// destructive-interference granularity with adjacent-line prefetching — so
// raisers on neighboring shards do not false-share.
type stampLine struct {
	v atomic.Uint64
	_ [120]byte
}

// Raise advances the home shard of the given sticky assignment to at least
// ts via a CAS maximum. It returns the number of failed CAS attempts (0 on
// the uncontended path); callers feed that into the read-stamp contention
// counters. Any shard value may only grow, so a raise that observes a value
// at or above ts is already satisfied.
func (s *ShardedStamp) Raise(home int, ts uint64) (retries uint64) {
	sh := &s.shards[home&(StampShards-1)].v
	for {
		last := sh.Load()
		if last >= ts || sh.CompareAndSwap(last, ts) {
			return retries
		}
		retries++
	}
}

// Max returns the maximum over all shards: the highest stamp any completed
// raise has published. Committers call it at the anti-dependency check sites.
func (s *ShardedStamp) Max() uint64 {
	var max uint64
	for i := range s.shards {
		if v := s.shards[i].v.Load(); v > max {
			max = v
		}
	}
	return max
}

// Seed initializes every shard to at least ts. Engines call it once at
// promotion time, before publishing the ShardedStamp, so the sharded maximum
// starts no lower than the inline stamp it extends (the inline stamp remains
// part of the observed maximum regardless; seeding just keeps the shard
// values meaningful in isolation for tests and debugging).
func (s *ShardedStamp) Seed(ts uint64) {
	for i := range s.shards {
		if s.shards[i].v.Load() < ts {
			s.shards[i].v.Store(ts)
		}
	}
}
