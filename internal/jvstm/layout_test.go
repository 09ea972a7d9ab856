package jvstm

import (
	"testing"
	"unsafe"
)

// TestVarLayout pins that a read's lock word and chain head share a line
// (DESIGN.md §12.4): they lead the variable, and its size class starts every
// object 16-byte aligned, so the 16 bytes never straddle a line boundary —
// at offsets 8 and 16 they did for every object at 48 mod 64.
func TestVarLayout(t *testing.T) {
	var z jvar
	if off := unsafe.Offsetof(z.owner); off != 0 {
		t.Errorf("owner at offset %d, want 0", off)
	}
	if off := unsafe.Offsetof(z.head); off != 8 {
		t.Errorf("head at offset %d, want 8", off)
	}
	if s := unsafe.Sizeof(z); s > 48 {
		t.Errorf("sizeof(jvar) = %d, want the 48-byte size class", s)
	}
	tm := New(Options{})
	for i := 0; i < 256; i++ {
		v := tm.NewVar(i).(*jvar)
		if at := uintptr(unsafe.Pointer(v)) % 64; at+unsafe.Offsetof(z.head)+unsafe.Sizeof(z.head) > 64 {
			t.Fatalf("var %d at %d mod 64: lock word and chain head straddle a line", i, at)
		}
	}
}
