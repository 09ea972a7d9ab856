// Package rbtree is a transactional red-black tree mapping int64 keys to
// arbitrary values — the data structure STAMP's vacation builds its
// reservation tables from, and so does internal/stamp/vacation.
//
// Every mutable field (color, value, child and parent links) is a
// transactional variable, so lookups read a root-to-key path and structural
// updates conflict exactly where a concurrent traversal passed. The
// algorithms are the classical CLRS insert/delete with parent pointers,
// formulated nil-safely (no shared sentinel node: a sentinel's parent field
// is written during fixups, which would make unrelated transactions conflict
// through it).
package rbtree

import "repro/internal/stm"

// Colors.
const (
	red   = true
	black = false
)

// node is a tree node; the key is immutable, everything else transactional.
type node struct {
	key    int64
	value  stm.Var // payload
	color  stm.Var // bool
	left   stm.Var // *node
	right  stm.Var // *node
	parent stm.Var // *node
}

// Map is a transactional ordered map backed by a red-black tree.
type Map struct {
	tm   stm.TM
	root stm.Var // *node
}

// New returns an empty map bound to tm.
func New(tm stm.TM) *Map {
	return &Map{tm: tm, root: tm.NewVar((*node)(nil))}
}

func (m *Map) newNode(k int64, val stm.Value) *node {
	return &node{
		key:    k,
		value:  m.tm.NewVar(val),
		color:  m.tm.NewVar(red),
		left:   m.tm.NewVar((*node)(nil)),
		right:  m.tm.NewVar((*node)(nil)),
		parent: m.tm.NewVar((*node)(nil)),
	}
}

func deref(tx stm.Tx, v stm.Var) *node {
	val := tx.Read(v)
	if val == nil {
		return nil
	}
	return val.(*node)
}

func isRed(tx stm.Tx, n *node) bool {
	return n != nil && tx.Read(n.color).(bool)
}

// Get returns the value stored at k.
func (m *Map) Get(tx stm.Tx, k int64) (stm.Value, bool) {
	n := deref(tx, m.root)
	for n != nil {
		switch {
		case k < n.key:
			n = deref(tx, n.left)
		case k > n.key:
			n = deref(tx, n.right)
		default:
			return tx.Read(n.value), true
		}
	}
	return nil, false
}

// Contains reports whether k is present.
func (m *Map) Contains(tx stm.Tx, k int64) bool {
	_, ok := m.Get(tx, k)
	return ok
}

// setChild links child into parent's side slot (or the root) and maintains
// the parent pointer.
func (m *Map) setChild(tx stm.Tx, parent *node, leftSide bool, child *node) {
	switch {
	case parent == nil:
		tx.Write(m.root, child)
	case leftSide:
		tx.Write(parent.left, child)
	default:
		tx.Write(parent.right, child)
	}
	if child != nil {
		tx.Write(child.parent, parent)
	}
}

// replaceChild rewires parent's link from old to repl (root-aware).
func (m *Map) replaceChild(tx stm.Tx, parent, old, repl *node) {
	if parent == nil {
		tx.Write(m.root, repl)
	} else if deref(tx, parent.left) == old {
		tx.Write(parent.left, repl)
	} else {
		tx.Write(parent.right, repl)
	}
	if repl != nil {
		tx.Write(repl.parent, parent)
	}
}

// rotateLeft lifts x's right child above x.
func (m *Map) rotateLeft(tx stm.Tx, x *node) {
	y := deref(tx, x.right)
	yl := deref(tx, y.left)
	tx.Write(x.right, yl)
	if yl != nil {
		tx.Write(yl.parent, x)
	}
	p := deref(tx, x.parent)
	m.replaceChild(tx, p, x, y)
	tx.Write(y.left, x)
	tx.Write(x.parent, y)
}

// rotateRight lifts x's left child above x.
func (m *Map) rotateRight(tx stm.Tx, x *node) {
	y := deref(tx, x.left)
	yr := deref(tx, y.right)
	tx.Write(x.left, yr)
	if yr != nil {
		tx.Write(yr.parent, x)
	}
	p := deref(tx, x.parent)
	m.replaceChild(tx, p, x, y)
	tx.Write(y.right, x)
	tx.Write(x.parent, y)
}

// Put inserts or updates k and reports whether a new key was inserted.
func (m *Map) Put(tx stm.Tx, k int64, val stm.Value) bool {
	var parent *node
	leftSide := false
	n := deref(tx, m.root)
	for n != nil {
		switch {
		case k < n.key:
			parent, leftSide, n = n, true, deref(tx, n.left)
		case k > n.key:
			parent, leftSide, n = n, false, deref(tx, n.right)
		default:
			tx.Write(n.value, val)
			return false
		}
	}
	fresh := m.newNode(k, val)
	m.setChild(tx, parent, leftSide, fresh)
	m.insertFixup(tx, fresh)
	return true
}

// insertFixup restores the red-black invariants after inserting z (CLRS
// 13.3, nil-safe).
func (m *Map) insertFixup(tx stm.Tx, z *node) {
	for {
		p := deref(tx, z.parent)
		if p == nil || !isRed(tx, p) {
			break
		}
		g := deref(tx, p.parent) // grandparent exists: p is red, so not root
		if deref(tx, g.left) == p {
			u := deref(tx, g.right)
			if isRed(tx, u) {
				tx.Write(p.color, black)
				tx.Write(u.color, black)
				tx.Write(g.color, red)
				z = g
				continue
			}
			if deref(tx, p.right) == z {
				z = p
				m.rotateLeft(tx, z)
				p = deref(tx, z.parent)
				g = deref(tx, p.parent)
			}
			tx.Write(p.color, black)
			tx.Write(g.color, red)
			m.rotateRight(tx, g)
		} else {
			u := deref(tx, g.left)
			if isRed(tx, u) {
				tx.Write(p.color, black)
				tx.Write(u.color, black)
				tx.Write(g.color, red)
				z = g
				continue
			}
			if deref(tx, p.left) == z {
				z = p
				m.rotateRight(tx, z)
				p = deref(tx, z.parent)
				g = deref(tx, p.parent)
			}
			tx.Write(p.color, black)
			tx.Write(g.color, red)
			m.rotateLeft(tx, g)
		}
	}
	root := deref(tx, m.root)
	if isRed(tx, root) {
		tx.Write(root.color, black)
	}
}

// Delete removes k and reports whether it was present.
func (m *Map) Delete(tx stm.Tx, k int64) bool {
	z := deref(tx, m.root)
	for z != nil && z.key != k {
		if k < z.key {
			z = deref(tx, z.left)
		} else {
			z = deref(tx, z.right)
		}
	}
	if z == nil {
		return false
	}

	// y is the node physically unlinked; x (possibly nil) takes its place,
	// xParent is x's parent after the transplant.
	y := z
	yWasBlack := !isRed(tx, y)
	var x, xParent *node

	switch {
	case deref(tx, z.left) == nil:
		x = deref(tx, z.right)
		xParent = deref(tx, z.parent)
		m.replaceChild(tx, xParent, z, x)
	case deref(tx, z.right) == nil:
		x = deref(tx, z.left)
		xParent = deref(tx, z.parent)
		m.replaceChild(tx, xParent, z, x)
	default:
		// Successor y = min of right subtree replaces z.
		y = deref(tx, z.right)
		for l := deref(tx, y.left); l != nil; l = deref(tx, y.left) {
			y = l
		}
		yWasBlack = !isRed(tx, y)
		x = deref(tx, y.right)
		if deref(tx, y.parent) == z {
			xParent = y
		} else {
			xParent = deref(tx, y.parent)
			m.replaceChild(tx, xParent, y, x)
			tx.Write(y.right, deref(tx, z.right))
			tx.Write(deref(tx, z.right).parent, y)
		}
		m.replaceChild(tx, deref(tx, z.parent), z, y)
		tx.Write(y.left, deref(tx, z.left))
		tx.Write(deref(tx, z.left).parent, y)
		tx.Write(y.color, tx.Read(z.color))
	}

	if yWasBlack {
		m.deleteFixup(tx, x, xParent)
	}
	return true
}

// deleteFixup restores the invariants after removing a black node (CLRS
// 13.4 with explicit (x, xParent) threading so x may be nil).
func (m *Map) deleteFixup(tx stm.Tx, x, xParent *node) {
	for xParent != nil && !isRed(tx, x) {
		if deref(tx, xParent.left) == x {
			w := deref(tx, xParent.right) // sibling; non-nil (black heights)
			if isRed(tx, w) {
				tx.Write(w.color, black)
				tx.Write(xParent.color, red)
				m.rotateLeft(tx, xParent)
				w = deref(tx, xParent.right)
			}
			if !isRed(tx, deref(tx, w.left)) && !isRed(tx, deref(tx, w.right)) {
				tx.Write(w.color, red)
				x = xParent
				xParent = deref(tx, x.parent)
				continue
			}
			if !isRed(tx, deref(tx, w.right)) {
				if wl := deref(tx, w.left); wl != nil {
					tx.Write(wl.color, black)
				}
				tx.Write(w.color, red)
				m.rotateRight(tx, w)
				w = deref(tx, xParent.right)
			}
			tx.Write(w.color, tx.Read(xParent.color))
			tx.Write(xParent.color, black)
			if wr := deref(tx, w.right); wr != nil {
				tx.Write(wr.color, black)
			}
			m.rotateLeft(tx, xParent)
			break
		}
		w := deref(tx, xParent.left)
		if isRed(tx, w) {
			tx.Write(w.color, black)
			tx.Write(xParent.color, red)
			m.rotateRight(tx, xParent)
			w = deref(tx, xParent.left)
		}
		if !isRed(tx, deref(tx, w.right)) && !isRed(tx, deref(tx, w.left)) {
			tx.Write(w.color, red)
			x = xParent
			xParent = deref(tx, x.parent)
			continue
		}
		if !isRed(tx, deref(tx, w.left)) {
			if wr := deref(tx, w.right); wr != nil {
				tx.Write(wr.color, black)
			}
			tx.Write(w.color, red)
			m.rotateLeft(tx, w)
			w = deref(tx, xParent.left)
		}
		tx.Write(w.color, tx.Read(xParent.color))
		tx.Write(xParent.color, black)
		if wl := deref(tx, w.left); wl != nil {
			tx.Write(wl.color, black)
		}
		m.rotateRight(tx, xParent)
		break
	}
	if x != nil && isRed(tx, x) {
		tx.Write(x.color, black)
	}
}

// Len counts the entries (reads the whole tree).
func (m *Map) Len(tx stm.Tx) int {
	return m.count(tx, deref(tx, m.root))
}

func (m *Map) count(tx stm.Tx, n *node) int {
	if n == nil {
		return 0
	}
	return 1 + m.count(tx, deref(tx, n.left)) + m.count(tx, deref(tx, n.right))
}

// Min returns the smallest key.
func (m *Map) Min(tx stm.Tx) (int64, bool) {
	n := deref(tx, m.root)
	if n == nil {
		return 0, false
	}
	for l := deref(tx, n.left); l != nil; l = deref(tx, n.left) {
		n = l
	}
	return n.key, true
}

// ForEach visits entries in ascending key order; fn returning false stops.
func (m *Map) ForEach(tx stm.Tx, fn func(k int64, v stm.Value) bool) {
	m.walk(tx, deref(tx, m.root), fn)
}

func (m *Map) walk(tx stm.Tx, n *node, fn func(int64, stm.Value) bool) bool {
	if n == nil {
		return true
	}
	if !m.walk(tx, deref(tx, n.left), fn) {
		return false
	}
	if !fn(n.key, tx.Read(n.value)) {
		return false
	}
	return m.walk(tx, deref(tx, n.right), fn)
}

// CheckInvariants verifies the red-black properties inside tx, returning the
// tree's black height. Exposed for tests.
func (m *Map) CheckInvariants(tx stm.Tx) (blackHeight int, err error) {
	root := deref(tx, m.root)
	if isRed(tx, root) {
		return 0, errRootRed
	}
	return m.check(tx, root, nil)
}

type rbError string

func (e rbError) Error() string { return string(e) }

const (
	errRootRed    = rbError("rbtree: root is red")
	errRedRed     = rbError("rbtree: red node with red child")
	errBlackDepth = rbError("rbtree: unequal black heights")
	errOrder      = rbError("rbtree: BST order violated")
	errParentLink = rbError("rbtree: bad parent link")
)

func (m *Map) check(tx stm.Tx, n, parent *node) (int, error) {
	if n == nil {
		return 1, nil
	}
	if deref(tx, n.parent) != parent {
		return 0, errParentLink
	}
	l := deref(tx, n.left)
	r := deref(tx, n.right)
	if l != nil && l.key >= n.key || r != nil && r.key <= n.key {
		return 0, errOrder
	}
	if isRed(tx, n) && (isRed(tx, l) || isRed(tx, r)) {
		return 0, errRedRed
	}
	lh, err := m.check(tx, l, n)
	if err != nil {
		return 0, err
	}
	rh, err := m.check(tx, r, n)
	if err != nil {
		return 0, err
	}
	if lh != rh {
		return 0, errBlackDepth
	}
	if !isRed(tx, n) {
		lh++
	}
	return lh, nil
}
