package mvutil

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

func TestMinStartEmpty(t *testing.T) {
	a := NewActiveSet(1)
	if got := a.MinStart(42); got != 42 {
		t.Fatalf("empty min = %d, want fallback 42", got)
	}
}

func TestRegisterUnregister(t *testing.T) {
	a := NewActiveSet(1)
	var s1, s2, s3 Slot
	a.Register(&s1, 10, false)
	a.Register(&s2, 5, true)
	a.Register(&s3, 20, false)
	if got := a.MinStart(100); got != 5 {
		t.Fatalf("min = %d, want 5", got)
	}
	a.Unregister(&s2)
	if got := a.MinStart(100); got != 10 {
		t.Fatalf("min = %d, want 10", got)
	}
	a.Unregister(&s1)
	a.Unregister(&s3)
	if got := a.MinStart(7); got != 7 {
		t.Fatalf("min = %d, want fallback 7", got)
	}
	a.Unregister(new(Slot)) // never registered: must be a safe no-op
}

func TestSlotReuse(t *testing.T) {
	// A pooled slot is registered and unregistered many times; its home shard
	// is sticky and each registration's start must be visible exactly while
	// registered.
	a := NewActiveSet(1)
	var s Slot
	for i := uint64(1); i <= 50; i++ {
		a.Register(&s, i, i%2 == 0)
		if got := a.MinStart(1 << 40); got != i {
			t.Fatalf("round %d: min = %d", i, got)
		}
		a.Unregister(&s)
		if got := a.MinStart(1 << 40); got != 1<<40 {
			t.Fatalf("round %d: slot leaked, min = %d", i, got)
		}
	}
}

func TestMinStartNeverAboveLiveMinimum(t *testing.T) {
	// Property: with any set of live registrations, MinStart is the exact
	// minimum of the live starts (or the fallback when none).
	f := func(starts []uint16, removeMask uint8) bool {
		a := NewActiveSet(1)
		slots := make([]*Slot, len(starts))
		for i, s := range starts {
			slots[i] = new(Slot)
			a.Register(slots[i], uint64(s), s%2 == 0)
		}
		live := make([]uint64, 0, len(starts))
		for i, s := range starts {
			if i < 8 && removeMask&(1<<i) != 0 {
				a.Unregister(slots[i])
				continue
			}
			live = append(live, uint64(s))
		}
		const fallback = uint64(1 << 40)
		want := fallback
		for _, s := range live {
			if s < want {
				want = s
			}
		}
		return a.MinStart(fallback) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentRegistration(t *testing.T) {
	a := NewActiveSet(1)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(base uint64) {
			defer wg.Done()
			var s Slot // reused across iterations, as pooled engines do
			for i := 0; i < 200; i++ {
				a.Register(&s, base+uint64(i), i%2 == 0)
				_ = a.MinStart(1 << 40)
				a.Unregister(&s)
			}
		}(uint64(g) * 1000)
	}
	wg.Wait()
	if got := a.MinStart(99); got != 99 {
		t.Fatalf("all unregistered, min = %d", got)
	}
}

func TestOlderUpdate(t *testing.T) {
	a := NewActiveSet(1)
	var ro, upd Slot
	a.Register(&ro, 3, false)
	if a.OlderUpdate(10) {
		t.Fatal("a read-only registration counted as an older update transaction")
	}
	a.Register(&upd, 10, true)
	if a.OlderUpdate(10) {
		t.Fatal("an update transaction at the same start counted as older")
	}
	if !a.OlderUpdate(11) {
		t.Fatal("update transaction at 10 not seen from 11")
	}
	a.Register(&upd, 12, true) // republication replaces
	if a.OlderUpdate(11) {
		t.Fatal("republished start not taken")
	}
	a.Unregister(&upd)
	if a.OlderUpdate(1 << 40) {
		t.Fatal("unregistered update transaction still seen")
	}
}

func TestOlderUpdateVec(t *testing.T) {
	a := NewActiveSet(4)
	var upd, scalar Slot
	a.RegisterVec(&upd, []uint64{5, 9, 5, 5}, 5, true)
	if a.OlderUpdateVec([]uint64{5, 9, 5, 5}) || a.OlderUpdateVec([]uint64{1, 1, 1, 1}) {
		t.Fatal("an update transaction at or above every component counted as older")
	}
	if !a.OlderUpdateVec([]uint64{5, 10, 5, 5}) {
		t.Fatal("update transaction below component 1 not seen")
	}
	if !a.OlderUpdate(6) || a.OlderUpdate(5) {
		t.Fatal("scalar consumers must see the vector's minimum")
	}
	a.Unregister(&upd)
	// A scalar update registration has no per-shard position: always older.
	a.Register(&scalar, 100, true)
	if !a.OlderUpdateVec([]uint64{1, 1, 1, 1}) {
		t.Fatal("scalar update registration must count as older for vector readers")
	}
}

// TestActiveSetAgainstModel runs randomized concurrent Register / RegisterVec
// / Unregister against a mutex-guarded model and checks every concurrent
// MinStarts scan from both sides: at or below every registration that was live
// for the whole scan (nothing live is missed), and at or above the smallest
// start that was live at any moment of it (nothing is invented; a vector
// registration is briefly visible as a scalar one at its minimum).
func TestActiveSetAgainstModel(t *testing.T) {
	const (
		k        = 4
		workers  = 6
		fallback = uint64(1 << 40)
	)
	iters := 4000
	if testing.Short() {
		iters = 800
	}
	a := NewActiveSet(k)

	type reg struct {
		vec [k]uint64
		min uint64
		gen int
	}
	var mu sync.Mutex
	sure := map[int]reg{}  // registered for certain: added after, removed before the real call
	maybe := map[int]reg{} // possibly registered: added before, removed after the real call
	var low [k]uint64      // smallest start that was possibly registered since the scanner last reset it
	noteLow := func(r reg) {
		for s := range low {
			if r.min < low[s] {
				low[s] = r.min
			}
		}
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			var slot Slot
			for i := 0; i < iters; i++ {
				r := reg{gen: i}
				vector := rng.Intn(2) == 0
				base := uint64(rng.Intn(1000)) + 1
				min := fallback
				for s := range r.vec {
					r.vec[s] = base
					if vector {
						r.vec[s] += uint64(rng.Intn(50))
					}
					if r.vec[s] < min {
						min = r.vec[s]
					}
				}
				r.min = min
				mu.Lock()
				maybe[w] = r
				noteLow(r)
				mu.Unlock()
				if vector {
					a.RegisterVec(&slot, r.vec[:], min, rng.Intn(2) == 0)
				} else {
					a.Register(&slot, base, rng.Intn(2) == 0)
				}
				mu.Lock()
				sure[w] = r
				mu.Unlock()
				runtime.Gosched()
				mu.Lock()
				delete(sure, w)
				mu.Unlock()
				a.Unregister(&slot)
				mu.Lock()
				delete(maybe, w)
				mu.Unlock()
			}
		}(w)
	}
	go func() { wg.Wait(); close(done) }()

	scans := 0
	for {
		select {
		case <-done:
			if scans == 0 {
				t.Fatal("no scan ran")
			}
			if got := a.MinStart(fallback); got != fallback {
				t.Fatalf("all unregistered, MinStart = %d", got)
			}
			if a.Len() > 2*workers {
				t.Fatalf("registry holds %d cells for %d slots of two kinds each", a.Len(), workers)
			}
			return
		default:
		}
		mu.Lock()
		before := make(map[int]reg, len(sure))
		for w, r := range sure {
			before[w] = r
		}
		for s := range low {
			low[s] = fallback
		}
		for _, r := range maybe {
			noteLow(r)
		}
		mu.Unlock()

		var got [k]uint64
		for s := range got {
			got[s] = fallback
		}
		a.MinStarts(got[:])
		scans++

		mu.Lock()
		for w, r := range before {
			if now, ok := sure[w]; !ok || now.gen != r.gen {
				continue // not live for the whole scan
			}
			for s := range got {
				if got[s] > r.vec[s] {
					t.Errorf("scan %d: component %d = %d above worker %d's live registration %d", scans, s, got[s], w, r.vec[s])
				}
			}
		}
		for s := range got {
			if got[s] < low[s] {
				t.Errorf("scan %d: component %d = %d below everything registered during the scan (%d)", scans, s, got[s], low[s])
			}
		}
		mu.Unlock()
		if t.Failed() {
			<-done
			return
		}
	}
}

// TestRegistryBoundedByPeakConcurrency registers through fresh Slots only —
// what an engine does when its descriptor pool keeps dropping descriptors
// (across runtime.GC, and always under the race detector) — and requires the
// registry to stay as long as the most registrations ever held at once.
func TestRegistryBoundedByPeakConcurrency(t *testing.T) {
	a := NewActiveSet(1)
	const live = 8
	for round := 0; round < 200; round++ {
		slots := make([]*Slot, live)
		for i := range slots {
			slots[i] = new(Slot)
			a.Register(slots[i], uint64(round+1), i%2 == 0)
		}
		if got := a.MinStart(1 << 40); got != uint64(round+1) {
			t.Fatalf("round %d: min = %d", round, got)
		}
		for _, s := range slots {
			a.Unregister(s)
		}
		if round%50 == 0 {
			runtime.GC()
			runtime.GC()
		}
	}
	if n := a.Len(); n != live {
		t.Fatalf("registry holds %d cells after rounds of %d registrations", n, live)
	}
	// A pooled Slot goes back to the cell of that kind it used last.
	var s Slot
	a.Register(&s, 1, false)
	ro := s.cell
	a.Unregister(&s)
	a.Register(&s, 2, true)
	upd := s.cell
	a.Unregister(&s)
	a.Register(&s, 3, false)
	if s.cell != ro || upd == ro {
		t.Fatal("read-only re-registration did not reuse the Slot's last read-only cell")
	}
	a.Unregister(&s)
	a.Register(&s, 4, true)
	if s.cell != upd {
		t.Fatal("update re-registration did not reuse the Slot's last update cell")
	}
	a.Unregister(&s)
}
