// Package mvutil is what the multi-versioned engines (TWM in internal/core
// and JVSTM in internal/jvstm) share: the Chassis they embed — commit clock,
// active-transaction registry, GC schedule, durability seam —
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
// The zero value is an empty registry.
type ActiveSet struct {
	lists [2]atomic.Pointer[activeCell] // indexed by kind
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
	wordShift  = iota
)

// activeCell is padded out to 128 bytes (two cache lines, the destructive
// interference granularity with adjacent-line prefetching) so registrations
// in neighbouring cells do not false-share.
type activeCell struct {
	word atomic.Uint64
	next *activeCell // set before the cell is pushed, never changed

	_ [128 - 16]byte
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
	for {
		c.next = list.Load()
		if list.CompareAndSwap(c.next, c) {
			return c
		}
	}
}

func liveWord(start uint64, update bool) uint64 {
	w := start<<wordShift | wordLive
	if update {
		w |= wordUpdate
	}
	return w
}

// Register publishes a registration at start, replacing the Slot's current
// one if it has one. update marks an update transaction (see OlderUpdate).
//
// A caller that takes start from a clock must publish before the sample it
// finally runs at — publish a sample, sample again, and publish that if it
// differs (Chassis.Snapshot) — so that a scan which misses the registration
// is known to precede the final sample.
func (a *ActiveSet) Register(slot *Slot, start uint64, update bool) {
	a.publish(slot, liveWord(start, update))
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
