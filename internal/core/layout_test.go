package core

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/stm"
)

// TestVarLayout pins the coherence properties of the per-variable metadata
// (DESIGN.md §12.4): everything a read barrier loads from the variable unless
// it stamps — lock word, chain head, embedded version, and the clock shard the
// update barrier folds into its footprint and the sharded barriers index the
// snapshot with — sits in the variable's first 64 bytes, next to the
// collector's root mark; a stamping barrier loads the stamp pointer from the
// bytes after them. The variable is 88 bytes — still the 96-byte size class;
// the 80-byte class would need hist out of the variable — and the read stamp
// is a slot of a shared chunk, outside the variable's own allocation, adjacent
// to the stamps of the variables created around it.
func TestVarLayout(t *testing.T) {
	var z twvar
	if s := unsafe.Sizeof(z); s > 88 {
		t.Errorf("sizeof(twvar) = %d, want <= 88", s)
	}
	if off := unsafe.Offsetof(z.owner); off != 0 {
		t.Errorf("owner at offset %d, want 0", off)
	}
	if off := unsafe.Offsetof(z.latest); off >= unsafe.Offsetof(z.root) {
		t.Errorf("latest at offset %d, want before root (%d)", off, unsafe.Offsetof(z.root))
	}
	for _, f := range []struct {
		name     string
		off, len uintptr
	}{
		{"owner", unsafe.Offsetof(z.owner), unsafe.Sizeof(z.owner)},
		{"latest", unsafe.Offsetof(z.latest), unsafe.Sizeof(z.latest)},
		{"root", unsafe.Offsetof(z.root), unsafe.Sizeof(z.root)},
		{"shard", unsafe.Offsetof(z.shard), unsafe.Sizeof(z.shard)},
		{"rootFree", unsafe.Offsetof(z.rootFree), unsafe.Sizeof(z.rootFree)},
	} {
		if end := f.off + f.len; end > 64 {
			t.Errorf("%s ends at byte %d, want within the first 64", f.name, end)
		}
	}
	if off := unsafe.Offsetof(z.stamp); off < 64 {
		t.Errorf("stamp at offset %d: the stamping barrier's field belongs after the leading block", off)
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
			// The walker must take the update-transaction read barrier.
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

// BenchmarkReadOnlyWalk measures the read-only barrier on a cold working set:
// 64 K variables linked in shuffled order (each holds the next, so the loads
// are dependent and no prefetcher helps), walked end to end by one read-only
// transaction per iteration. The chain is walked in three states — rooted
// (never overwritten: the version is inside the variable), collected (every
// variable overwritten once and one collector pass run: the sole version is a
// heap object, the state sweep's re-rooting exists to leave) and rerooted (one
// more pass, past the epoch: back inside the variable) — each quiet and with
// an older update transaction parked in flight, which makes the walker stamp
// every read; the clock ticks between walks, as it does under load, so every
// stamp is behind it again. Reports ns/read.
func BenchmarkReadOnlyWalk(b *testing.B) {
	const n = 1 << 16
	build := func(passes int) (*TM, stm.Var, stm.Var) {
		tm := newTM()
		vars := make([]stm.Var, n)
		for i := range vars {
			vars[i] = tm.NewVar(nil)
		}
		walk := rand.New(rand.NewSource(1)).Perm(n) // the walk visits vars[walk[0]], vars[walk[1]], ...
		next := func(j int) stm.Var {
			if j+1 < n {
				return vars[walk[j+1]]
			}
			return nil
		}
		tick := tm.NewVar(0)
		if passes == 0 {
			for j := range walk {
				vars[walk[j]].(*twvar).root.value = next(j) // not shared yet
			}
			return tm, vars[walk[0]], tick
		}
		for at := 0; at < n; at += 64 {
			_ = stm.Atomically(tm, false, func(tx stm.Tx) error {
				for j := at; j < at+64; j++ {
					tx.Write(vars[walk[j]], next(j))
				}
				return nil
			})
		}
		for p := 0; p < passes; p++ {
			_ = stm.Atomically(tm, false, func(tx stm.Tx) error { tx.Write(tick, p); return nil })
			tm.GC()
		}
		return tm, vars[walk[0]], tick
	}
	for _, state := range []struct {
		name   string
		passes int
	}{{"rooted", 0}, {"collected", 1}, {"rerooted", 2}} {
		for _, parked := range []bool{false, true} {
			name := state.name + "/quiet"
			if parked {
				name = state.name + "/older-updater"
			}
			b.Run(name, func(b *testing.B) {
				tm, head, tick := build(state.passes)
				if parked {
					old := tm.Begin(false)
					defer tm.Abort(old)
				}
				tm.Stats().Reset()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_ = stm.Atomically(tm, false, func(tx stm.Tx) error { tx.Write(tick, i); return nil })
					_ = stm.Atomically(tm, true, func(tx stm.Tx) error {
						for cur := head; cur != nil; {
							cur, _ = tx.Read(cur).(stm.Var)
						}
						return nil
					})
				}
				b.StopTimer()
				if sn := tm.Stats().Snapshot(); (sn.QuietROCommits == 0) != parked {
					b.Fatalf("%d of %d walks quiet, parked=%v", sn.QuietROCommits, sn.ROCommits, parked)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/read")
			})
		}
	}
}
