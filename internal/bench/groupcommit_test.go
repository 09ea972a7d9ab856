package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/engines"
	"repro/internal/xrand"
)

// BenchmarkGroupCommit measures the write-heavy Zipf counter workload on each
// serial engine and its group-commit variant across the goroutine axis — the
// A/B behind the flat-combining commit stage (DESIGN.md §13). Each cell pins
// GOMAXPROCS to its goroutine count, exactly as GroupCommitFigure does. Run
// with:
//
//	go test ./internal/bench -bench GroupCommit -benchmem -run '^$'
func BenchmarkGroupCommit(b *testing.B) {
	cfg := DefaultGroupCommit()
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, name := range GroupCommitEngines() {
		b.Run(name, func(b *testing.B) {
			for _, g := range GroupCommitThreads() {
				b.Run(fmt.Sprintf("g%d", g), func(b *testing.B) {
					tm := engines.MustNew(name)
					op, err := GroupCommitMicro(cfg).Prepare(tm, g)
					if err != nil {
						b.Fatal(err)
					}
					runtime.GOMAXPROCS(g)
					defer runtime.GOMAXPROCS(prev)
					b.ReportAllocs()
					b.ResetTimer()
					runFixedGoroutines(b, g, op)
				})
			}
		})
	}
}

// runFixedGoroutines splits b.N operations across exactly g goroutines with
// per-worker RNG streams, mirroring RunMicro's worker structure.
func runFixedGoroutines(b *testing.B, g int, op MicroOp) {
	if g > b.N {
		g = b.N
	}
	done := make(chan struct{}, g)
	base := xrand.New(uint64(b.N) | 1)
	share := b.N / g
	extra := b.N % g
	for w := 0; w < g; w++ {
		n := share
		if w < extra {
			n++
		}
		go func(id, n int, r *xrand.Rand) {
			for i := 0; i < n; i++ {
				op(id, r)
			}
			done <- struct{}{}
		}(w, n, base.Split(w))
	}
	for w := 0; w < g; w++ {
		<-done
	}
}

// TestGroupCommitSmoke is the CI smoke form of the group-commit experiment:
// a tiny A/B sweep asserting that the sweep completes, the -gc engines
// actually batch with the one-tick-per-batch invariant intact, the counters
// stay exact, and the JSON artifact round-trips.
func TestGroupCommitSmoke(t *testing.T) {
	threads := []int{2, 4}
	dur := 40 * time.Millisecond
	if testing.Short() {
		threads = []int{2}
		dur = 20 * time.Millisecond
	}
	cfg := FigureConfig{
		Engines:  GroupCommitEngines(),
		Threads:  threads,
		Duration: dur,
		Seed:     1,
	}
	gc := GroupCommitConfig{Counters: 256, WritesPerTx: 4, ZipfS: 1.1, Seed: 1}

	var out bytes.Buffer
	results, err := GroupCommitFigure(&out, cfg, gc)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(cfg.Engines) * len(threads); len(results) != want {
		t.Fatalf("got %d cells, want %d", len(results), want)
	}
	for _, r := range results {
		if r.Stats.Commits == 0 {
			t.Errorf("%s t=%d: no commits", r.Engine, r.Threads)
		}
		grouped := strings.HasSuffix(r.Engine, "-gc")
		if grouped && r.Stats.GroupBatches == 0 {
			t.Errorf("%s t=%d: group-commit engine never batched", r.Engine, r.Threads)
		}
		if !grouped && r.Stats.GroupBatches != 0 {
			t.Errorf("%s t=%d: serial engine reported batches", r.Engine, r.Threads)
		}
		if r.Stats.ClockAdvances != r.Stats.GroupBatches {
			t.Errorf("%s t=%d: clock advances %d != batches %d",
				r.Engine, r.Threads, r.Stats.ClockAdvances, r.Stats.GroupBatches)
		}
	}
	for _, want := range []string{"Group commit", "abort rate", "batch statistics", "speedup"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("figure output missing %q:\n%s", want, out.String())
		}
	}

	art := NewGroupCommitArtifact(cfg, gc, results)
	var js bytes.Buffer
	if err := art.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var back GroupCommitArtifact
	if err := json.Unmarshal(js.Bytes(), &back); err != nil {
		t.Fatalf("artifact does not round-trip: %v", err)
	}
	if back.Experiment != "groupcommit" || !back.GOMAXPROCSPerCell || len(back.Cells) != len(results) {
		t.Fatalf("artifact mismatch: %+v", back)
	}
}

// TestGroupCommitMicroBatchesAllUpdates: on a group-commit engine every
// update commit of the workload flows through the combiner — the batched-tx
// counter covers all of them (and no more than commits+aborts, since locked
// members may still fail validation at their turn).
func TestGroupCommitMicroBatchesAllUpdates(t *testing.T) {
	gc := GroupCommitConfig{Counters: 64, WritesPerTx: 4, ZipfS: 1.1, Seed: 1}
	res, err := RunMicro("twm-gc", GroupCommitMicro(gc), 4, 30*time.Millisecond, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 || res.Stats.Commits == 0 {
		t.Fatalf("no work done: %+v", res.Stats)
	}
	updates := res.Stats.Commits - res.Stats.ROCommits
	if res.Stats.GroupBatchTxs < updates {
		t.Fatalf("batched txs %d < update commits %d", res.Stats.GroupBatchTxs, updates)
	}
	if res.Stats.GroupBatchTxs > res.Stats.Commits+res.Stats.Aborts {
		t.Fatalf("batched txs %d > commits+aborts %d",
			res.Stats.GroupBatchTxs, res.Stats.Commits+res.Stats.Aborts)
	}
}
