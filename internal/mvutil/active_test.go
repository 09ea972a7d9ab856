package mvutil

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

func TestMinStartEmpty(t *testing.T) {
	a := new(ActiveSet)
	if got := a.MinStart(42); got != 42 {
		t.Fatalf("empty min = %d, want fallback 42", got)
	}
}

func TestRegisterUnregister(t *testing.T) {
	a := new(ActiveSet)
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
	// A pooled slot is registered and unregistered many times; its cell is
	// sticky and each registration's start must be visible exactly while
	// registered.
	a := new(ActiveSet)
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
		a := new(ActiveSet)
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
	a := new(ActiveSet)
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
	a := new(ActiveSet)
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

// TestActiveSetAgainstModel runs randomized concurrent Register / Unregister
// against a mutex-guarded model and checks every concurrent MinStart scan
// from both sides: at or below every registration that was live for the
// whole scan (nothing live is missed), and at or above the smallest start
// that was live at any moment of it (nothing is invented).
func TestActiveSetAgainstModel(t *testing.T) {
	const (
		workers  = 6
		fallback = uint64(1 << 40)
	)
	iters := 4000
	if testing.Short() {
		iters = 800
	}
	a := new(ActiveSet)

	type reg struct {
		start uint64
		gen   int
	}
	var mu sync.Mutex
	sure := map[int]reg{}  // registered for certain: added after, removed before the real call
	maybe := map[int]reg{} // possibly registered: added before, removed after the real call
	var low uint64         // smallest start that was possibly registered since the scanner last reset it
	noteLow := func(r reg) {
		if r.start < low {
			low = r.start
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
				r := reg{start: uint64(rng.Intn(1000)) + 1, gen: i}
				mu.Lock()
				maybe[w] = r
				noteLow(r)
				mu.Unlock()
				a.Register(&slot, r.start, rng.Intn(2) == 0)
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
		low = fallback
		for _, r := range maybe {
			noteLow(r)
		}
		mu.Unlock()

		got := a.MinStart(fallback)
		scans++

		mu.Lock()
		for w, r := range before {
			if now, ok := sure[w]; !ok || now.gen != r.gen {
				continue // not live for the whole scan
			}
			if got > r.start {
				t.Errorf("scan %d: min %d above worker %d's live registration %d", scans, got, w, r.start)
			}
		}
		if got < low {
			t.Errorf("scan %d: min %d below everything registered during the scan (%d)", scans, got, low)
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
	a := new(ActiveSet)
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
