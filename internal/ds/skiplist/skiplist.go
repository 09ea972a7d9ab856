// Package skiplist is a transactional skip-list integer set, the structure of
// the paper's §5.1 microbenchmark (the Deuce IntSet benchmark). Tower levels
// are derived deterministically from the key so that runs are reproducible
// across engines and thread counts.
package skiplist

import (
	"math"
	"math/bits"

	"repro/internal/stm"
)

// MaxLevel bounds tower height; 2^20 expected elements is ample for the
// paper's 100k-element configuration.
const MaxLevel = 20

// node is a skip-list tower. Keys and heights are immutable; the forward
// pointers are the transactional variables. A tower of height at most two —
// three in four — keeps its links in low, inside the node: the node is then
// 64 bytes, one line-aligned size class, so a traversal hop loads the key and
// the link it follows from one line. Taller towers allocate next apart.
type node struct {
	key  int64
	next []stm.Var // len == height; each holds *node
	low  [2]stm.Var
}

// Set is a transactional skip-list set of int64 keys.
type Set struct {
	tm   stm.TM
	head *node // sentinel tower of full height, key = -inf
}

// New returns an empty set bound to tm.
func New(tm stm.TM) *Set {
	head := &node{key: math.MinInt64, next: make([]stm.Var, MaxLevel)}
	for i := range head.next {
		head.next[i] = tm.NewVar((*node)(nil))
	}
	return &Set{tm: tm, head: head}
}

// levelOf derives a deterministic tower height from the key (geometric with
// p = 1/2), so the same key always builds the same tower.
func levelOf(k int64) int {
	z := uint64(k) * 0x9E3779B97F4A7C15
	z ^= z >> 29
	lvl := 1 + bits.TrailingZeros64(z|1<<(MaxLevel-1))
	if lvl > MaxLevel {
		lvl = MaxLevel
	}
	return lvl
}

func deref(tx stm.Tx, v stm.Var) *node {
	val := tx.Read(v)
	if val == nil {
		return nil
	}
	return val.(*node)
}

// findPreds fills preds with the rightmost node at each level whose key is
// < k, and returns the candidate node at level 0.
func (s *Set) findPreds(tx stm.Tx, k int64, preds []*node) *node {
	curr := s.head
	for lvl := MaxLevel - 1; lvl >= 0; lvl-- {
		for {
			next := deref(tx, curr.next[lvl])
			if next == nil || next.key >= k {
				break
			}
			curr = next
		}
		if preds != nil {
			preds[lvl] = curr
		}
	}
	return deref(tx, curr.next[0])
}

// Contains reports whether k is in the set.
func (s *Set) Contains(tx stm.Tx, k int64) bool {
	cand := s.findPreds(tx, k, nil)
	return cand != nil && cand.key == k
}

// Insert adds k and reports whether the set changed.
func (s *Set) Insert(tx stm.Tx, k int64) bool {
	var preds [MaxLevel]*node
	cand := s.findPreds(tx, k, preds[:])
	if cand != nil && cand.key == k {
		return false
	}
	h := levelOf(k)
	n := &node{key: k}
	if h <= len(n.low) {
		n.next = n.low[:h]
	} else {
		n.next = make([]stm.Var, h)
	}
	for lvl := 0; lvl < h; lvl++ {
		succ := deref(tx, preds[lvl].next[lvl])
		n.next[lvl] = s.tm.NewVar(stm.Value(succ))
		tx.Write(preds[lvl].next[lvl], n)
	}
	return true
}

// Remove deletes k and reports whether the set changed.
func (s *Set) Remove(tx stm.Tx, k int64) bool {
	var preds [MaxLevel]*node
	cand := s.findPreds(tx, k, preds[:])
	if cand == nil || cand.key != k {
		return false
	}
	for lvl := 0; lvl < len(cand.next); lvl++ {
		tx.Write(preds[lvl].next[lvl], deref(tx, cand.next[lvl]))
	}
	return true
}

// Len counts the elements by walking level 0.
func (s *Set) Len(tx stm.Tx) int {
	n := 0
	for curr := deref(tx, s.head.next[0]); curr != nil; curr = deref(tx, curr.next[0]) {
		n++
	}
	return n
}

// Keys returns the elements in ascending order.
func (s *Set) Keys(tx stm.Tx) []int64 {
	var out []int64
	for curr := deref(tx, s.head.next[0]); curr != nil; curr = deref(tx, curr.next[0]) {
		out = append(out, curr.key)
	}
	return out
}
