package skiplist

import (
	"testing"
	"unsafe"

	"repro/internal/engines"
	"repro/internal/stm"
)

// TestNodeLayout pins what makes a traversal hop one line of structure: a
// node is 64 bytes, so the allocator's line-aligned 64-byte size class holds
// it, and a tower of height at most two keeps its links inside the node
// while a taller one allocates them apart.
func TestNodeLayout(t *testing.T) {
	if s := unsafe.Sizeof(node{}); s != 64 {
		t.Fatalf("sizeof(node) = %d, want 64 (one line-aligned size class)", s)
	}
	tm := engines.MustNew("twm")
	s := New(tm)
	var short, tall int
	_ = stm.Atomically(tm, false, func(tx stm.Tx) error {
		for k := int64(0); k < 256; k++ {
			s.Insert(tx, k)
		}
		return nil
	})
	_ = stm.Atomically(tm, true, func(tx stm.Tx) error {
		for n := deref(tx, s.head.next[0]); n != nil; n = deref(tx, n.next[0]) {
			lo := uintptr(unsafe.Pointer(n))
			if lo%64 != 0 {
				t.Errorf("node %d at %#x: not 64-byte aligned", n.key, lo)
			}
			links := uintptr(unsafe.Pointer(&n.next[0]))
			inside := links >= lo && links < lo+unsafe.Sizeof(*n)
			if h := len(n.next); h != levelOf(n.key) {
				t.Errorf("node %d: height %d, want %d", n.key, h, levelOf(n.key))
			} else if h <= len(n.low) {
				short++
				if links != uintptr(unsafe.Pointer(&n.low[0])) {
					t.Errorf("node %d of height %d: links at %#x, want inside the node at %#x", n.key, h, links, lo)
				}
			} else {
				tall++
				if inside {
					t.Errorf("node %d of height %d: links inside the node", n.key, h)
				}
			}
		}
		return nil
	})
	if short == 0 || tall == 0 {
		t.Errorf("%d short and %d tall towers: want both kinds checked", short, tall)
	}
}
