// Benchmarks regenerating the paper's tables and figures as testing.B
// targets, one family per figure. These use container-sized inputs so
// `go test -bench=.` completes quickly; the cmd/twm-bench CLI runs the same
// experiments at full scale with table output.
//
// Reported custom metrics: aborts/op is the paper's abort-rate metric
// (restarts / executions); the Fig. 4(c) benchmark additionally reports the
// per-phase microsecond breakdown.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/engines"
	"repro/internal/stamp"
	"repro/internal/stm"
	"repro/internal/xrand"
)

// benchThreads is the goroutine count used by the fixed-duration benchmark
// bodies (via SetParallelism); kept moderate so ns/op stays meaningful.
const benchThreads = 8

// yieldEvery matches the CLI default: one scheduler yield per barrier to
// simulate multi-core transaction overlap on few cores.
const yieldEvery = 1

// runMicroBench drives a Micro workload under testing.B with parallel
// workers and reports the abort rate.
func runMicroBench(b *testing.B, engine string, m bench.Micro) {
	b.Helper()
	inner := engines.MustNew(engine)
	tm := bench.WithYield(inner, yieldEvery)
	op, err := m.Prepare(tm, benchThreads)
	if err != nil {
		b.Fatal(err)
	}
	tm.Stats().Reset()
	b.SetParallelism(benchThreads) // GOMAXPROCS may be 1; this forces overlap
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		r := xrand.New(uint64(b.N) | 1)
		id := int(r.Uint64() % benchThreads)
		for pb.Next() {
			op(id, r)
		}
	})
	b.StopTimer()
	snap := tm.Stats().Snapshot()
	b.ReportMetric(float64(snap.Aborts)/float64(b.N), "aborts/op")
}

// BenchmarkFig3SkipList is Fig. 3(a) (ns/op ~ inverse throughput) and
// Fig. 3(b) (aborts/op) on the shared skip list with 25% updates.
func BenchmarkFig3SkipList(b *testing.B) {
	cfg := bench.SkipListConfig{Elements: 2000, KeyRange: 4000, UpdatePct: 0.25, Seed: 1}
	for _, engine := range engines.PaperSet() {
		b.Run(engine, func(b *testing.B) {
			runMicroBench(b, engine, bench.SkipListMicro(cfg))
		})
	}
}

// BenchmarkFig4aCounters is the Fig. 4(a) worst case: both counters written
// by every transaction.
func BenchmarkFig4aCounters(b *testing.B) {
	for _, engine := range engines.PaperSet() {
		b.Run(engine, func(b *testing.B) {
			runMicroBench(b, engine, bench.CountersMicro())
		})
	}
}

// BenchmarkFig4bDisjoint is the Fig. 4(b) conflict-free configuration
// (per-worker private skip lists, 100% updates).
func BenchmarkFig4bDisjoint(b *testing.B) {
	cfg := bench.DisjointConfig{ElementsPerList: 500, KeyRange: 1000, Seed: 1}
	for _, engine := range engines.PaperSet() {
		b.Run(engine, func(b *testing.B) {
			runMicroBench(b, engine, bench.DisjointMicro(cfg))
		})
	}
}

// BenchmarkFig4cOverhead reproduces the Fig. 4(c) per-phase breakdown,
// reported as us/tx metrics next to ns/op.
func BenchmarkFig4cOverhead(b *testing.B) {
	cfg := bench.DisjointConfig{ElementsPerList: 500, KeyRange: 1000, Seed: 1}
	for _, engine := range engines.PaperSet() {
		b.Run(engine, func(b *testing.B) {
			inner := engines.MustNew(engine)
			prof := &stm.Profiler{}
			inner.(stm.Profilable).SetProfiler(prof)
			tm := bench.WithYield(inner, yieldEvery)
			op, err := bench.DisjointMicro(cfg).Prepare(tm, benchThreads)
			if err != nil {
				b.Fatal(err)
			}
			prof.Reset()
			b.SetParallelism(benchThreads)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				r := xrand.New(uint64(b.N) | 1)
				id := int(r.Uint64() % benchThreads)
				for pb.Next() {
					op(id, r)
				}
			})
			b.StopTimer()
			bd := prof.Snapshot()
			b.ReportMetric(bd.ReadUS, "read-us/tx")
			b.ReportMetric(bd.ReadSetValUS, "readsetval-us/tx")
			b.ReportMetric(bd.WriteSetValUS, "writesetval-us/tx")
			b.ReportMetric(bd.CommitUS, "commit-us/tx")
		})
	}
}

// runStampBench runs a whole fixed-work application per iteration and
// reports Table 2's abort-rate metric.
func runStampBench(b *testing.B, engine string, mk func() stamp.Workload) {
	b.Helper()
	var aborts, execs uint64
	for i := 0; i < b.N; i++ {
		res, err := bench.RunStamp(engine, mk, benchThreads, yieldEvery)
		if err != nil {
			b.Fatal(err)
		}
		aborts += res.Stats.Aborts
		execs += res.Stats.Commits + res.Stats.Aborts
	}
	if execs > 0 {
		b.ReportMetric(float64(aborts)/float64(execs)*100, "abort-%")
	}
}

// BenchmarkFig5 covers the eight STAMP panels of Fig. 5(a)-(h); the abort-%
// metric doubles as Table 2's per-benchmark entries.
func BenchmarkFig5(b *testing.B) {
	apps, err := bench.StampApps("small")
	if err != nil {
		b.Fatal(err)
	}
	for _, app := range bench.StampAppNames() {
		mk := apps[app]
		b.Run(app, func(b *testing.B) {
			for _, engine := range engines.PaperSet() {
				b.Run(engine, func(b *testing.B) {
					runStampBench(b, engine, mk)
				})
			}
		})
	}
}

// BenchmarkAblationTimeWarp isolates the contribution of Rules 1-2: the same
// TWM engine with time-warp commits disabled degenerates to classic
// validation over the same multi-version substrate (DESIGN.md §6).
func BenchmarkAblationTimeWarp(b *testing.B) {
	cfg := bench.SkipListConfig{Elements: 2000, KeyRange: 4000, UpdatePct: 0.25, Seed: 1}
	for _, engine := range []string{"twm", "twm-notw"} {
		b.Run(engine, func(b *testing.B) {
			runMicroBench(b, engine, bench.SkipListMicro(cfg))
		})
	}
}

// BenchmarkZipfContention sweeps access skew on the red-black tree: rising
// skew concentrates conflicts on hot keys, widening the gap between
// time-warping and classic validation.
func BenchmarkZipfContention(b *testing.B) {
	for _, s := range []float64{0, 0.99} {
		cfg := bench.DefaultTree()
		cfg.Elements, cfg.KeyRange, cfg.ZipfS = 500, 1000, s
		for _, engine := range []string{"twm", "tl2", "norec"} {
			b.Run(fmt.Sprintf("s=%.2f/%s", s, engine), func(b *testing.B) {
				runMicroBench(b, engine, bench.TreeMicro(cfg))
			})
		}
	}
}

// BenchmarkAblationGCInterval sweeps the version-GC period: frequent passes
// pay walk cost, rare passes pay memory and version-list length on reads.
func BenchmarkAblationGCInterval(b *testing.B) {
	cfg := bench.SkipListConfig{Elements: 2000, KeyRange: 4000, UpdatePct: 0.25, Seed: 1}
	for _, every := range []int{64, 1024, 16384} {
		b.Run(fmt.Sprintf("gc=%d", every), func(b *testing.B) {
			tm := bench.WithYield(newTWMWithGC(every), yieldEvery)
			op, err := bench.SkipListMicro(cfg).Prepare(tm, benchThreads)
			if err != nil {
				b.Fatal(err)
			}
			b.SetParallelism(benchThreads)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				r := xrand.New(uint64(b.N) | 1)
				for pb.Next() {
					op(0, r)
				}
			})
		})
	}
}
