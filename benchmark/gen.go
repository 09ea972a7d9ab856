package main

import (
	"math/rand"
	"runtime"
	"time"
)

// opKind is what one generated operation does.
type opKind uint8

const (
	opContains opKind = iota // read: set membership
	opInsert                 // update
	opRemove                 // update
	opBalance                // read: GET /v1/accounts/{a}
	opTransfer               // update: POST /v1/transfer a -> b
)

func (k opKind) isRead() bool { return k == opContains || k == opBalance }

// op is one generated operation: a set key in a, or accounts in a and b.
type op struct {
	kind opKind
	a, b int64
}

// opStream yields one worker's operations. The stream is a pure function of
// (workload, seed, worker): the program under test receives only what next
// returns, never the seed.
type opStream struct {
	rng  *rand.Rand
	zipf *rand.Zipf // account popularity (srv-*); nil on the set workloads
	wl   *workload
}

// streamSeed spreads (seed, worker, purpose) over distinct math/rand sources.
func streamSeed(seed int64, worker int, purpose int64) int64 {
	return seed*1_000_003 + int64(worker)*8191 + purpose
}

const (
	purposeOps      = 1
	purposePopulate = 2
	purposeArrivals = 3
)

func newOpStream(wl *workload, seed int64, worker int) *opStream {
	s := &opStream{rng: rand.New(rand.NewSource(streamSeed(seed, worker, purposeOps))), wl: wl}
	if wl.accounts > 0 {
		s.zipf = rand.NewZipf(s.rng, wl.zipfS, 1, uint64(wl.accounts-1))
	}
	return s
}

func (s *opStream) next() op {
	wl := s.wl
	read := s.rng.Float64() < wl.readShare
	if wl.accounts > 0 {
		a := int64(s.zipf.Uint64())
		if read {
			return op{kind: opBalance, a: a}
		}
		b := int64(s.zipf.Uint64())
		if b == a { // the server refuses self-transfers
			b = (a + 1) % int64(wl.accounts)
		}
		return op{kind: opTransfer, a: a, b: b}
	}
	k := s.rng.Int63n(wl.keyRange)
	switch {
	case read:
		return op{kind: opContains, a: k}
	case s.rng.Intn(2) == 0:
		return op{kind: opInsert, a: k}
	default:
		return op{kind: opRemove, a: k}
	}
}

// populateKeys returns the distinct keys a set workload starts from.
func populateKeys(wl *workload, seed int64) []int64 {
	rng := rand.New(rand.NewSource(streamSeed(seed, 0, purposePopulate)))
	seen := make(map[int64]bool, wl.keys)
	keys := make([]int64, 0, wl.keys)
	for len(keys) < wl.keys {
		k := rng.Int63n(wl.keyRange)
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return keys
}

// arrival is one scheduled request of an open loop.
type arrival struct {
	due time.Duration // offset from the start of the window
	op  op
}

// poissonSchedule returns the arrivals of a Poisson process of the given rate
// over window: exponential gaps, one operation each.
func poissonSchedule(wl *workload, seed int64, window time.Duration) []arrival {
	rng := rand.New(rand.NewSource(streamSeed(seed, 0, purposeArrivals)))
	ops := newOpStream(wl, seed, 0)
	var out []arrival
	t := 0.0 // seconds
	for {
		t += rng.ExpFloat64() / wl.openRate
		due := time.Duration(t * float64(time.Second))
		if due >= window {
			return out
		}
		out = append(out, arrival{due: due, op: ops.next()})
	}
}

// spinMargin is how long before a due time the pacer stops sleeping. Go
// timers cannot end a sleep inside a millisecond: the runtime waits in
// epoll_wait, whose timeout is whole milliseconds rounded up, so a sleep to the
// due time lands about 0.55 ms late (measured here) and that would be added to
// every open-loop sample — twice the read median. The pacer sleeps to 1.2 ms before
// the due time (the largest overshoot plus a wake-up) and yields in a loop from
// there, which lands within a few microseconds. The loop is not free: while it
// runs, one of the W processors only ever runs what is already runnable and
// never polls the network, so the margin is as small as the timers allow. At
// 2 ms the open loop's read p99 was 1.5 ms higher and its update p50 12 %.
const spinMargin = 1200 * time.Microsecond

// waitUntil returns once the clock reaches due, and whether it had to wait.
func waitUntil(due time.Time) (waited bool) {
	for {
		left := time.Until(due)
		if left <= 0 {
			return waited
		}
		waited = true
		if left > spinMargin {
			time.Sleep(left - spinMargin)
		} else {
			runtime.Gosched()
		}
	}
}
