package avstm

// Visible-reader registry.
//
// AVSTM's reads are fully visible: every read registers the transaction in
// the variable's reader list so a committing writer can clamp the intervals
// of the readers it overtakes. The list is intrusive and doubly linked, and
// it is guarded by the variable's own mutex, the one that already guards
// value, wts and rts. A read registers and loads value and wts in one
// critical section; a writer publishes value and wts and clamps the listed
// readers in one. So either the reader's section comes first (it read the
// old value, is still listed, and is clamped below the writer's point) or
// the writer's does (the reader sees the new value and wts and serializes
// after it). No committed reader of the old value can serialize after the
// writer.
//
// Registration is allocation-free: list nodes are pooled on the owning
// descriptor (a node goes back on the descriptor's freelist as soon as it is
// unlinked), so the steady state recycles nodes the way descriptors
// themselves are recycled.

// readerNode is one (transaction, variable) registration: an intrusive
// doubly-linked list element owned and pooled by its transaction descriptor.
type readerNode struct {
	tx   *txn
	v    *avar
	prev *readerNode
	next *readerNode // doubles as the freelist link while pooled
}

// register links tx into v's reader list and returns the node, or nil when
// tx is already registered for v. Caller holds v.mu.
func (v *avar) register(tx *txn) *readerNode {
	for n := v.readers; n != nil; n = n.next {
		if n.tx == tx {
			return nil
		}
	}
	n := tx.newNode(v)
	n.next = v.readers
	if v.readers != nil {
		v.readers.prev = n
	}
	v.readers = n
	return n
}

// unlink removes a registered node from v's reader list. Caller holds v.mu.
// The node is NOT returned to the freelist here: callers do that once they
// are done with n.v.
func (v *avar) unlink(n *readerNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		v.readers = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	}
}

// clampReaders clamps every registered reader except the committer itself to
// serialize below p. Caller holds v.mu. Lock order is avar.mu → txn.mu
// (clampUB); no path takes a variable's mutex while holding a descriptor's.
func (v *avar) clampReaders(except *txn, p uint64) {
	for n := v.readers; n != nil; n = n.next {
		if n.tx != except {
			n.tx.clampUB(p)
		}
	}
}

// newNode pops a node from the descriptor's freelist, or allocates the
// pool's seed node. Nodes cycle between a variable's reader list and their
// descriptor's freelist, so steady-state registration allocates nothing.
func (tx *txn) newNode(v *avar) *readerNode {
	n := tx.free
	if n == nil {
		n = &readerNode{tx: tx}
	} else {
		tx.free = n.next
	}
	n.v = v
	n.prev, n.next = nil, nil
	return n
}

// freeNode returns an unlinked node to the descriptor's freelist, dropping
// its variable reference so pooled nodes do not pin dead variables.
func (tx *txn) freeNode(n *readerNode) {
	n.v = nil
	n.prev = nil
	n.next = tx.free
	tx.free = n
}
