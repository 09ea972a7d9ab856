package mvutil

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements the flat-combining commit stage shared by the
// group-commit engines (internal/core and internal/jvstm with GroupCommit
// set; DESIGN.md §13). Committers with a validated-ready write set publish a
// CommitReq to a striped Treiber stack and spin on a per-request done flag;
// whichever committer wins the leader lock drains every stripe and commits
// the whole batch on the followers' behalf, handing each result back through
// its request. The combiner owns publication, leader election, batching and
// handoff; the commit callback — the pipeline's Chassis.lead — owns locking,
// validation and version installation.

const (
	// combinerStripes is the publication-stack stripe count (power of two).
	// Stripes only exist to spread the publish CAS across cache lines;
	// correctness never depends on which stripe a request lands in.
	combinerStripes = 8
	// DefaultMaxBatch caps the members handed to one commit callback. Batches
	// beyond it are split — the callback's working state (claimed-variable
	// map, lock list) stays bounded no matter how deep the queue got.
	DefaultMaxBatch = 64
	// submitSpins is how many Gosched iterations a follower spins on its done
	// flag before escalating to short sleeps. On an oversubscribed machine a
	// spinning follower competes with the leader for the cores the leader
	// needs to finish the batch; sleeping followers give them back.
	submitSpins = 64
	// submitNap is the follower's sleep once spinning escalates.
	submitNap = 20 * time.Microsecond
)

// CommitReq is one published commit request. Desc embeds a CommitReq and
// points Tx back at itself, so publication allocates nothing. A request is owned by its submitter until
// the publish CAS, by the leader from drain until Finish, and by the
// submitter again after Done reports true — Finish/Done carry the
// release/acquire pair that makes the leader's writes to the descriptor
// (orders, stats, abort reason) visible to the submitter.
type CommitReq struct {
	// Tx is the engine's transaction descriptor.
	Tx any
	// OK is the commit outcome, written by the leader before Finish.
	OK bool

	// next links the Treiber stack; it is synchronized by the stack head's
	// CAS/Swap and must not be touched after publication until drained.
	next *CommitReq
	done atomic.Uint32
}

// Reset readies the request for publication on behalf of tx. It must be
// called before every Submit (requests are reused across a descriptor's
// pooled lifetimes).
func (r *CommitReq) Reset(tx any) {
	r.Tx = tx
	r.OK = false
	r.next = nil
	r.done.Store(0)
}

// Finish resolves the request with the commit outcome. Leader-side: every
// write to the underlying descriptor must happen before Finish, because the
// submitter may recycle the descriptor the moment Done reports true.
func (r *CommitReq) Finish(ok bool) {
	r.OK = ok
	r.done.Store(1)
}

// Done reports whether a leader has resolved the request.
func (r *CommitReq) Done() bool { return r.done.Load() == 1 }

// BatchHooks are the combiner's fault points, exercised by internal/chaos:
// LeaderStall runs at the start of every leader drain session (a descheduled
// leader — followers must tolerate it), and SplitBatch may shrink a
// prospective batch of n members to fewer (forcing the spill/re-round paths).
// A nil hook injects nothing.
type BatchHooks struct {
	LeaderStall func()
	SplitBatch  func(n int) int
}

// combinerStripe is one padded publication stack.
type combinerStripe struct {
	head atomic.Pointer[CommitReq]
	_    [128 - 8]byte
}

// Combiner is the striped flat-combining queue. One Combiner serves one
// engine instance; all of that engine's update commits flow through it, which
// is what makes the leader the engine's only commit-lock acquirer.
type Combiner struct {
	maxBatch int
	hooks    *BatchHooks

	stripes [combinerStripes]combinerStripe

	// mu elects the leader. The commit callback always runs under it, so the
	// Chassis keeps its per-batch scratch without further locking; scratch is
	// the combiner's own drain buffer under the same rule.
	mu      sync.Mutex
	scratch []*CommitReq
}

// NewCombiner returns a combiner splitting batches at maxBatch members
// (0 selects DefaultMaxBatch). hooks may be nil.
func NewCombiner(maxBatch int, hooks *BatchHooks) *Combiner {
	if maxBatch <= 0 {
		maxBatch = DefaultMaxBatch
	}
	return &Combiner{maxBatch: maxBatch, hooks: hooks}
}

// Submit publishes req on a stripe and waits until some leader — possibly
// this caller — resolves it. commit receives each drained batch (at most
// maxBatch requests) and must Finish every request it is handed, exactly
// once. stripe spreads publication (any value; a descriptor-sticky index is
// ideal). It returns the commit outcome and whether the commit
// was performed by another goroutine's leader session (the flat-combining
// handoff).
func (c *Combiner) Submit(req *CommitReq, stripe int, commit func(batch []*CommitReq)) (ok, handoff bool) {
	h := &c.stripes[stripe&(combinerStripes-1)].head
	for {
		old := h.Load()
		req.next = old
		if h.CompareAndSwap(old, req) {
			break
		}
	}
	for spins := 0; ; spins++ {
		if req.Done() {
			return req.OK, true
		}
		if c.mu.TryLock() {
			c.lead(commit)
			c.mu.Unlock()
			// The drain loop only returns once every stripe is empty, and our
			// request was published before the lock was won, so it has been
			// resolved — by us, or by the previous leader racing the TryLock.
			return req.OK, false
		}
		if spins < submitSpins {
			runtime.Gosched()
		} else {
			time.Sleep(submitNap)
		}
	}
}

// lead drains every stripe and commits the accumulated requests, repeating
// until a full sweep finds nothing — requests published while a batch was
// committing are picked up by the same leader session rather than waiting for
// their submitters to win the lock.
func (c *Combiner) lead(commit func(batch []*CommitReq)) {
	if c.hooks != nil && c.hooks.LeaderStall != nil {
		c.hooks.LeaderStall()
	}
	for {
		buf := c.scratch[:0]
		for i := range c.stripes {
			for r := c.stripes[i].head.Swap(nil); r != nil; r = r.next {
				buf = append(buf, r)
			}
		}
		if len(buf) == 0 {
			return
		}
		for off := 0; off < len(buf); {
			n := len(buf) - off
			if n > c.maxBatch {
				n = c.maxBatch
			}
			if c.hooks != nil && c.hooks.SplitBatch != nil {
				if m := c.hooks.SplitBatch(n); m >= 1 && m < n {
					n = m
				}
			}
			commit(buf[off : off+n])
			off += n
		}
		// Drop the drained descriptors before the next sweep: a resolved
		// request may be recycled by its submitter at any time, and scratch
		// must not pin it (or its engine) beyond the batch that resolved it.
		clear(buf)
		c.scratch = buf[:0]
	}
}
