// Package mvutil is what the multi-versioned engines (TWM in internal/core
// and JVSTM in internal/jvstm) share: the Chassis they embed — clock domain,
// active-transaction registry, GC schedule, version budget, durability seam —
// and the one commit pipeline both run (pipeline.go), parameterised by each
// engine's validation rule.
package mvutil

import "sync/atomic"

// ActiveSet tracks the start timestamps of in-flight transactions: the version
// garbage collector folds them into the oldest snapshot any active transaction
// may still read, and a read-only TWM transaction scans them for an older
// update transaction before it elides its read stamps (DESIGN.md §12.5).
//
// It is two push-only lists of cells — one for read-only registrations, one
// for update registrations — each cell holding at most one registration in
// one atomic word. Registering claims a free cell of its kind — the one the
// Slot used last time, as a rule, so a pooled descriptor keeps writing a line
// nobody else writes — and unregistering is one store that frees it again;
// every consumer is a lock-free scan. A cell belongs to nobody between two
// registrations, so a list grows to the largest number of transactions of its
// kind ever in flight at once and no further, whatever becomes of their
// descriptors. The kinds are kept apart for the scan every read-only Begin
// runs (OlderUpdate): it reads update cells only, so cells that read-only
// transactions write on every Begin and Commit are loaded by nobody but the
// occasional collector pass and stay exclusive in their writer's cache.
type ActiveSet struct {
	lists  [2]atomic.Pointer[activeCell] // indexed by kind
	shards int                           // width of RegisterVec registrations
}

// The two kinds of registration.
const (
	kindReadOnly = iota
	kindUpdate
)

// A cell's word is 0 while free and start<<wordShift|flags while it holds a
// registration.
const (
	wordLive   = 1 << iota // registered
	wordUpdate             // the update transaction has yet to check read stamps (Settle)
	wordVec                // vec carries the per-clock-shard starts; start is their minimum
	wordShift  = iota
)

// activeCell is padded out to 128 bytes (two cache lines, the destructive
// interference granularity with adjacent-line prefetching) so registrations
// in neighbouring cells do not false-share.
type activeCell struct {
	word atomic.Uint64
	// vec holds the components of a RegisterVec registration. Only the
	// registration holding the cell stores to it, and only before the word that
	// announces the components. A scan that reads them across an Unregister and
	// the next claim gets a mix of two registrations, the first of which has
	// finished and the second of which published after the scan began — the
	// case every consumer already tolerates (see Register).
	vec  []atomic.Uint64
	next *activeCell // set before the cell is pushed, never changed

	_ [128 - 40]byte
}

// Slot is one descriptor's handle on the registry: the cell holding its
// registration, if it has one, and the cell of each kind to try first next
// time. Engines embed one in their pooled transaction descriptor. A Slot must
// not be copied while registered, must not be used with more than one
// ActiveSet, and calls on it must not race each other.
type Slot struct {
	cell *activeCell // nil: not registered
	last [2]*activeCell
}

// NewActiveSet returns a registry whose RegisterVec registrations carry
// shards components (1 or less: scalar registrations only).
func NewActiveSet(shards int) *ActiveSet { return &ActiveSet{shards: shards} }

// publish stores w as slot's registration: into the cell it holds (a
// replacement keeps the kind of what it replaces), or else into a free cell of
// its kind that it claims — the last one it used, any other, or a new one.
func (a *ActiveSet) publish(slot *Slot, w uint64) *activeCell {
	if c := slot.cell; c != nil {
		c.word.Store(w)
		return c
	}
	kind := kindReadOnly
	if w&wordUpdate != 0 {
		kind = kindUpdate
	}
	c := slot.last[kind]
	if c == nil || !c.word.CompareAndSwap(0, w) {
		c = a.claim(&a.lists[kind], w)
		slot.last[kind] = c
	}
	slot.cell = c
	return c
}

// claim stores w into a free cell of list, pushing a new one if none is free.
func (a *ActiveSet) claim(list *atomic.Pointer[activeCell], w uint64) *activeCell {
	for c := list.Load(); c != nil; c = c.next {
		if c.word.Load() == 0 && c.word.CompareAndSwap(0, w) {
			return c
		}
	}
	c := new(activeCell)
	c.word.Store(w)
	if a.shards > 1 {
		c.vec = make([]atomic.Uint64, a.shards)
	}
	for {
		c.next = list.Load()
		if list.CompareAndSwap(c.next, c) {
			return c
		}
	}
}

func liveWord(start uint64, update bool, flags uint64) uint64 {
	if update {
		flags |= wordUpdate
	}
	return start<<wordShift | flags | wordLive
}

// Register publishes a registration at start, replacing the Slot's current
// one if it has one. update marks an update transaction (see OlderUpdate).
//
// A caller that takes start from a clock must publish before the sample it
// finally runs at — publish a sample, sample again, and publish that if it
// differs (Chassis.Snapshot) — so that a scan which misses the registration
// is known to precede the final sample.
func (a *ActiveSet) Register(slot *Slot, start uint64, update bool) {
	a.publish(slot, liveWord(start, update, 0))
}

// RegisterVec is Register for a transaction begun on a per-clock-shard
// snapshot vector: scalar consumers (MinStart, OlderUpdate) see min, and
// per-shard consumers (MinStarts, OlderUpdateVec) see each component — so one
// shard's GC bound is never dragged down by a transaction whose snapshot of
// that shard is actually recent, just because some *other* shard's clock
// lags. len(vec) must be the set's shard count and min the minimum of vec.
//
// The registration is first published as a scalar one at min (which claims
// the cell and is a lower bound on every component), then the components are
// stored, then the word that announces them. Only what differs from the
// cell's contents is stored, so republishing an unchanged vector — or one
// idle shards dominate — costs loads of the registrant's own line.
func (a *ActiveSet) RegisterVec(slot *Slot, vec []uint64, min uint64, update bool) {
	w := liveWord(min, update, wordVec)
	c := slot.cell
	if c == nil || c.word.Load()&wordVec == 0 {
		c = a.publish(slot, w&^wordVec)
	} // else a republication: the components only rise, each is valid on its own
	for i := range c.vec {
		if c.vec[i].Load() != vec[i] {
			c.vec[i].Store(vec[i])
		}
	}
	if c.word.Load() != w {
		c.word.Store(w)
	}
}

// Unregister removes a finished transaction. Unregistering a slot that holds
// no registration is a no-op.
func (a *ActiveSet) Unregister(slot *Slot) {
	if c := slot.cell; c != nil {
		slot.cell = nil
		c.word.Store(0)
	}
}

// Settle drops the update mark from the Slot's registration, which otherwise
// stands: the garbage collector still sees its start.
func (a *ActiveSet) Settle(slot *Slot) {
	if c := slot.cell; c != nil {
		c.word.Store(c.word.Load() &^ wordUpdate)
	}
}

// Len reports how many cells the registry holds, free ones included.
func (a *ActiveSet) Len() int {
	n := 0
	for k := range a.lists {
		for c := a.lists[k].Load(); c != nil; c = c.next {
			n++
		}
	}
	return n
}

// MinStart returns the smallest registered start timestamp, or fallback when
// nothing is registered.
func (a *ActiveSet) MinStart(fallback uint64) uint64 {
	min := fallback
	for k := range a.lists {
		for c := a.lists[k].Load(); c != nil; c = c.next {
			if w := c.word.Load(); w != 0 && w>>wordShift < min {
				min = w >> wordShift
			}
		}
	}
	return min
}

// MinStarts folds the per-clock-shard minimum start into dst, which the
// caller pre-fills with per-shard fallbacks (typically each shard's clock).
// Vector registrations contribute component-wise; scalar ones contribute
// their single start to every component (the conservative reading — a scalar
// registrant's snapshot position on any shard's line is unknown).
func (a *ActiveSet) MinStarts(dst []uint64) {
	for k := range a.lists {
		for c := a.lists[k].Load(); c != nil; c = c.next {
			w := c.word.Load()
			if w == 0 {
				continue
			}
			if w&wordVec != 0 && len(c.vec) == len(dst) {
				for s := range dst {
					if v := c.vec[s].Load(); v < dst[s] {
						dst[s] = v
					}
				}
				continue
			}
			for s := range dst {
				if w>>wordShift < dst[s] {
					dst[s] = w >> wordShift
				}
			}
		}
	}
}

// OlderUpdate reports whether an update transaction that has not settled is
// registered below start. A caller that sampled start before the call learns
// from false that every such transaction still to come will run at start or
// later: one the scan missed had not published yet, and publishes before it
// samples.
func (a *ActiveSet) OlderUpdate(start uint64) bool {
	for c := a.lists[kindUpdate].Load(); c != nil; c = c.next {
		if w := c.word.Load(); w&wordUpdate != 0 && w>>wordShift < start {
			return true
		}
	}
	return false
}

// OlderUpdateVec is OlderUpdate against a snapshot vector: it reports whether
// some unsettled update registration is below vec in any component.
func (a *ActiveSet) OlderUpdateVec(vec []uint64) bool {
	for c := a.lists[kindUpdate].Load(); c != nil; c = c.next {
		w := c.word.Load()
		if w&wordUpdate == 0 {
			continue
		}
		if w&wordVec == 0 || len(c.vec) != len(vec) {
			return true // no per-shard position to compare: assume older
		}
		for s := range vec {
			if c.vec[s].Load() < vec[s] {
				return true
			}
		}
	}
	return false
}
