package stm

import (
	"sync"
	"testing"
)

func TestBackoffDistinctStreams(t *testing.T) {
	// Regression for the clock-seeded lockstep bug: many Backoffs created and
	// first used "at the same time" must still draw pairwise-distinct windows.
	// Drive each past the yield phase so the lazy seed materializes, then
	// compare generator states (equal states would replay identical window
	// sequences forever).
	const n = 64
	states := make(map[uint64]bool, n)
	for i := 0; i < n; i++ {
		var b Backoff
		b.Wait()
		b.Wait()
		b.Wait() // first sleeping wait: seeds and advances the stream
		if b.rng == 0 {
			t.Fatalf("backoff %d never seeded", i)
		}
		if states[b.rng] {
			t.Fatalf("duplicate backoff stream state after %d instances", i)
		}
		states[b.rng] = true
	}
}

func TestBackoffDistinctStreamsConcurrent(t *testing.T) {
	// Same property when the instances race to seed: the atomic counter hands
	// every goroutine a distinct stream even when they seed in the same tick.
	const n = 32
	var wg sync.WaitGroup
	statesCh := make(chan uint64, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var b Backoff
			for j := 0; j < 3; j++ {
				b.Wait()
			}
			statesCh <- b.rng
		}()
	}
	wg.Wait()
	close(statesCh)
	seen := make(map[uint64]bool, n)
	for s := range statesCh {
		if s == 0 || seen[s] {
			t.Fatalf("backoff streams not pairwise distinct under concurrency")
		}
		seen[s] = true
	}
}
