package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/stm"
)

// TestVarLayout pins the coherence properties of the per-variable metadata
// (DESIGN.md §12.4): everything a traversal loads — lock word, chain head,
// embedded initial version — sits in the variable's first 64 bytes, the
// variable stays in the 96-byte size class, and the read stamp every reader
// raises is a slot of a shared chunk, outside the variable's own allocation,
// adjacent to the stamps of the variables created around it.
func TestVarLayout(t *testing.T) {
	var z twvar
	if s := unsafe.Sizeof(z); s > 96 {
		t.Errorf("sizeof(twvar) = %d, want <= 96", s)
	}
	if off := unsafe.Offsetof(z.owner); off != 0 {
		t.Errorf("owner at offset %d, want 0", off)
	}
	if off := unsafe.Offsetof(z.latest); off >= unsafe.Offsetof(z.root) {
		t.Errorf("latest at offset %d, want before root (%d)", off, unsafe.Offsetof(z.root))
	}
	if end := unsafe.Offsetof(z.root) + unsafe.Sizeof(z.root); end > 64 {
		t.Errorf("owner/latest/root end at byte %d, want within the first 64", end)
	}

	// One P, so every NewVar below draws from the same per-P chunk.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	tm := newTM()
	vars := make([]*twvar, 8)
	for i := range vars {
		vars[i] = tm.NewVar(i).(*twvar)
	}
	for i, v := range vars {
		if v.latest.Load() != &v.root {
			t.Errorf("var %d: initial version is not the embedded root", i)
		}
		lo := uintptr(unsafe.Pointer(v))
		if s := uintptr(unsafe.Pointer(v.stamp)); s >= lo && s < lo+unsafe.Sizeof(*v) {
			t.Errorf("var %d: stamp word %#x lies inside the variable [%#x,+%d)", i, s, lo, unsafe.Sizeof(*v))
		}
		if raceEnabled || i == 0 {
			continue
		}
		if d := uintptr(unsafe.Pointer(v.stamp)) - uintptr(unsafe.Pointer(vars[i-1].stamp)); d != 8 {
			t.Errorf("vars %d and %d: stamp slots %d bytes apart, want adjacent (8)", i-1, i, d)
		}
	}
	if chunk := unsafe.Sizeof(stampChunk{}); chunk != 4096 {
		t.Errorf("sizeof(stampChunk) = %d, want one 4 KiB size-class object", chunk)
	}
}

// TestStampChunkExhaustion deals more stamps than one chunk holds: slots must
// stay distinct across the chunk boundary and a full chunk must not be dealt
// from again.
func TestStampChunkExhaustion(t *testing.T) {
	tm := newTM()
	seen := make(map[*atomic.Uint64]bool)
	for i := 0; i < 3*len(stampChunk{}.slots)+5; i++ {
		s := tm.newStamp()
		if seen[s] {
			t.Fatalf("stamp slot %p dealt twice (deal %d)", s, i)
		}
		seen[s] = true
	}
}

// BenchmarkTraverseBesideStamper isolates what stamp placement costs a
// traversal: one goroutine walks a chain of N variables (each holds the next,
// so the loads are dependent, as in a linked list) in an update transaction
// while, in the "beside" case, a second goroutine commits update transactions
// whose read set is the same N variables — each commit's HANDLEREAD pass
// raises all N read stamps. With the stamp on the variable's own line every
// raise invalidated the line the walker loads next; with the stamp in a chunk
// the walker's lines stay shared. Reports ns/read.
func BenchmarkTraverseBesideStamper(b *testing.B) {
	const n = 1024
	run := func(b *testing.B, neighbour bool) {
		tm := New(Options{})
		var head stm.Var // head -> ... -> last, whose value is nil
		for i := 0; i < n; i++ {
			head = tm.NewVar(head)
		}
		walk := func(tx stm.Tx) error {
			for cur := head; cur != nil; {
				cur, _ = tx.Read(cur).(stm.Var)
			}
			return nil
		}
		sink := tm.NewVar(0)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		if neighbour {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					_ = stm.Atomically(tm, false, func(tx stm.Tx) error {
						tx.Write(sink, i&0xff)
						return walk(tx)
					})
				}
			}()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			//twm:allow abortshape the walker must take the update-transaction read barrier
			_ = stm.Atomically(tm, false, walk)
		}
		b.StopTimer()
		close(stop)
		wg.Wait()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/read")
	}
	b.Run("alone", func(b *testing.B) { run(b, false) })
	b.Run("beside", func(b *testing.B) {
		if runtime.GOMAXPROCS(0) < 2 {
			b.Skip("needs a second P for the stamping neighbour")
		}
		run(b, true)
	})
}
