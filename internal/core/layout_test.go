package core

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/stm"
)

// TestVarLayout pins the coherence properties of the per-variable metadata
// (DESIGN.md §12.4): the variable is exactly 64 bytes — the allocator's
// 64-byte size class is line-aligned, so everything a read barrier loads
// unless it stamps (lock word, chain head, embedded version) lies on one
// line — and what no traversal loads (read stamp, id, history, queue mark)
// is a slot of a shared meta chunk, outside the variable's own allocation and
// adjacent to the slots of the variables created around it.
func TestVarLayout(t *testing.T) {
	var z twvar
	if s := unsafe.Sizeof(z); s != 64 {
		t.Errorf("sizeof(twvar) = %d, want 64 (one line-aligned size class)", s)
	}
	if off := unsafe.Offsetof(z.owner); off != 0 {
		t.Errorf("owner at offset %d, want 0", off)
	}
	if off := unsafe.Offsetof(z.latest); off >= unsafe.Offsetof(z.root) {
		t.Errorf("latest at offset %d, want before root (%d)", off, unsafe.Offsetof(z.root))
	}
	if s := unsafe.Sizeof(varMeta{}); s != 32 {
		t.Errorf("sizeof(varMeta) = %d, want 32 (two slots a line)", s)
	}
	if s := unsafe.Sizeof(metaChunk{}); s > 4096 || s+unsafe.Sizeof(varMeta{}) <= 4096 {
		t.Errorf("sizeof(metaChunk) = %d, want the most slots one 4 KiB size-class object holds", s)
	}

	// One P, so every NewVar below draws from the same per-P chunk.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	tm := newTM()
	vars := make([]*twvar, 64)
	for i := range vars {
		vars[i] = tm.NewVar(i).(*twvar)
	}
	for i, v := range vars {
		if v.latest.Load() != &v.root {
			t.Errorf("var %d: initial version is not the embedded root", i)
		}
		lo := uintptr(unsafe.Pointer(v))
		if lo%64 != 0 {
			t.Errorf("var %d at %#x: not 64-byte aligned", i, lo)
		}
		if s := uintptr(unsafe.Pointer(&v.meta.stamp)); s >= lo && s < lo+unsafe.Sizeof(*v) {
			t.Errorf("var %d: stamp word %#x lies inside the variable [%#x,+%d)", i, s, lo, unsafe.Sizeof(*v))
		}
		if raceEnabled || i == 0 {
			continue
		}
		if d := uintptr(unsafe.Pointer(v.meta)) - uintptr(unsafe.Pointer(vars[i-1].meta)); d != unsafe.Sizeof(varMeta{}) {
			t.Errorf("vars %d and %d: meta slots %d bytes apart, want adjacent (%d)", i-1, i, d, unsafe.Sizeof(varMeta{}))
		}
	}
}

// TestMetaChunkExhaustion deals more meta slots than one chunk holds: slots
// must stay distinct across the chunk boundary and a full chunk must not be
// dealt from again.
func TestMetaChunkExhaustion(t *testing.T) {
	tm := newTM()
	seen := make(map[*varMeta]bool)
	for i := 0; i < 3*len(metaChunk{}.slots)+5; i++ {
		m := tm.newMeta()
		if seen[m] {
			t.Fatalf("meta slot %p dealt twice (deal %d)", m, i)
		}
		seen[m] = true
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
// (never overwritten: the version is inside the variable), overwritten (every
// variable overwritten once and no collector pass yet: the head is a heap
// object, the state sweep's re-rooting exists to leave) and rerooted (one
// pass: back inside the variable) — each quiet and with
// an older update transaction parked in flight, which makes the walker stamp
// every read; the clock ticks between walks, as it does under load, so every
// stamp is behind it again. Reports ns/read.
func BenchmarkReadOnlyWalk(b *testing.B) {
	const n = 1 << 16
	build := func(writes bool, passes int) (*TM, stm.Var, stm.Var) {
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
		if !writes {
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
		writes bool
		passes int
	}{{"rooted", false, 0}, {"overwritten", true, 0}, {"rerooted", true, 1}} {
		for _, parked := range []bool{false, true} {
			name := state.name + "/quiet"
			if parked {
				name = state.name + "/older-updater"
			}
			b.Run(name, func(b *testing.B) {
				tm, head, tick := build(state.writes, state.passes)
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
