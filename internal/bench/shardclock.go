package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"repro/internal/engines"
	"repro/internal/stm"
	"repro/internal/xrand"
)

// Shard-clock experiment: the partitioned multi-clock probe (DESIGN.md §17).
//
// The workload partitions a counter array into P partitions aligned with the
// sharded engine's clock domains; every worker is sticky to a home partition
// (worker id mod P — the NUMA-ish shard-hint mode) and RMW-increments a few
// Zipf-drawn counters there, so contention is intra-partition by
// construction. A cross-shard mix knob makes each transaction also touch a
// second partition with the given probability. The A/B contrasts the same
// engine unsharded and sharded at several mixes:
//
//   - Single-shard mix (cross = 0): the sharded engine's commits draw from
//     their home shard's clock alone — zero coordination with other domains.
//     On a single-core host this A/B is close to isomorphic for twm (its
//     commit-time walks compare per-variable stamps, not clock reads, so a
//     partitioned workload drives the same decisions either way); the sweep
//     documents that honestly and exists to expose the coherence-limited
//     shape on real multicore hardware, where the unsharded engine's single
//     clock line is the contended word. See EXPERIMENTS.md.
//   - Cross mixes (10%, 50%): a fraction of commits pay the fence draw and
//     validate per shard — the price of the two-phase cross-shard protocol,
//     bounded by the acceptance criterion (≤10% under the unsharded engine).
type ShardClockConfig struct {
	Partitions       int     // partitions == clock shards in the sharded cells
	VarsPerPartition int     // counters per partition
	WritesPerTx      int     // RMW increments per transaction
	ZipfS            float64 // intra-partition access skew
	Seed             uint64
	CrossFracs       []float64 // cross-shard transaction fractions to sweep
}

// DefaultShardClock is the container-sized configuration: enough partitions
// that the sharded engine's number lines stay quiet, hot enough inside each
// partition (Zipf) that the unsharded engine's validation work is real.
func DefaultShardClock() ShardClockConfig {
	return ShardClockConfig{
		Partitions:       16,
		VarsPerPartition: 256,
		WritesPerTx:      4,
		ZipfS:            1.1,
		Seed:             1,
		CrossFracs:       []float64{0, 0.10, 0.50},
	}
}

// ShardClockThreads is the goroutine axis of the sweep.
func ShardClockThreads() []int { return []int{8, 16, 32, 64} }

// shardClockMicro builds the partitioned counter workload at one cross-shard
// fraction. Keys are drawn outside the transaction body so retries replay the
// same footprint.
func shardClockMicro(cfg ShardClockConfig, crossFrac float64) Micro {
	return Micro{
		Name: "shardclock",
		Prepare: func(tm stm.TM, threads int) (MicroOp, error) {
			p, v := cfg.Partitions, cfg.VarsPerPartition
			vars := make([]stm.Var, p*v)
			for i := range vars {
				vars[i] = tm.NewVar(0)
			}
			z := xrand.NewZipf(v, cfg.ZipfS)
			op := func(id int, r *xrand.Rand) {
				home := id % p // sticky shard hint: a worker's footprint lives here
				n := cfg.WritesPerTx
				var picks [16]int
				if n > len(picks) {
					n = len(picks)
				}
				part := home
				cross := crossFrac > 0 && r.Float64() < crossFrac
				other := home
				if cross {
					other = (home + 1 + r.Intn(p-1)) % p
				}
				for i := 0; i < n; i++ {
					// A cross transaction splits its writes over two
					// partitions; a single-shard one stays home.
					if cross && i >= n/2 {
						part = other
					}
					picks[i] = part*v + z.Next(r)
				}
				_ = stm.Atomically(tm, false, func(tx stm.Tx) error {
					for i := 0; i < n; i++ {
						tv := vars[picks[i]]
						tx.Write(tv, tx.Read(tv).(int)+1)
					}
					return nil
				})
			}
			return op, nil
		},
	}
}

// shardClockSharder maps the workload's partition-major variable ids onto
// clock shards: partition p owns ids [p*V+1, (p+1)*V], so partition == shard.
func shardClockSharder(varsPerPartition int) func(id uint64, shards int) int {
	v := uint64(varsPerPartition)
	return func(id uint64, shards int) int {
		if id == 0 {
			return 0
		}
		return int(((id - 1) / v) % uint64(shards))
	}
}

// ShardClockCell is one measurement in the JSON artifact.
type ShardClockCell struct {
	Engine             string  `json:"engine"`
	ClockShards        int     `json:"clock_shards"`
	CrossFrac          float64 `json:"cross_frac"`
	Threads            int     `json:"threads"`
	Ops                uint64  `json:"ops"`
	ElapsedNS          int64   `json:"elapsed_ns"`
	OpsPerSec          float64 `json:"ops_per_sec"`
	Commits            uint64  `json:"commits"`
	Aborts             uint64  `json:"aborts"`
	AbortRate          float64 `json:"abort_rate"`
	SingleShardCommits uint64  `json:"single_shard_commits,omitempty"`
	CrossShardCommits  uint64  `json:"cross_shard_commits,omitempty"`
	ShardCASRetries    uint64  `json:"shard_cas_retries,omitempty"`
}

// ShardClockArtifact is the machine-readable sweep (BENCH_shardclock.json).
type ShardClockArtifact struct {
	Experiment string           `json:"experiment"`
	Config     ShardClockConfig `json:"config"`
	DurationMS int64            `json:"duration_ms_per_cell"`
	// GOMAXPROCSPerCell records that each cell ran at GOMAXPROCS equal to its
	// goroutine count (same rationale as the group-commit sweep).
	GOMAXPROCSPerCell bool `json:"gomaxprocs_per_cell"`
	// RepsPerCell is the repetitions each cell ran; the reported cell is the
	// throughput median (oversubscribed schedules are noisy).
	RepsPerCell int              `json:"reps_per_cell"`
	Cells       []ShardClockCell `json:"cells"`
}

// WriteJSON emits the artifact with stable indentation (diff-friendly when
// committed to the repository).
func (a ShardClockArtifact) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(a)
}

// shardClockReps is the per-cell repetition count; each cell reports its
// throughput median. Three is the smallest odd count with a true median.
const shardClockReps = 3

// medianRun executes run shardClockReps times and returns the result with the
// median throughput, forcing a collection between repetitions so one rep's
// version-chain residue does not bleed into the next.
func medianRun(run func() (Result, error)) (Result, error) {
	var results []Result
	for i := 0; i < shardClockReps; i++ {
		runtime.GC()
		r, err := run()
		if err != nil {
			return Result{}, err
		}
		results = append(results, r)
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Throughput() < results[j].Throughput() })
	return results[len(results)/2], nil
}

// ShardClockFigure runs the unsharded-vs-sharded A/B over the cross-shard
// mixes and thread counts, printing throughput tables, the commit-class
// accounting, and the pairwise gains. Like the group-commit sweep it pins
// GOMAXPROCS to the cell's goroutine count: oversubscription is the point —
// the schedule interleaves many committers, and what separates the engines is
// how much commit-time work each transaction performs, not parallel clock
// hardware. Each cell is the median of shardClockReps repetitions.
func ShardClockFigure(w io.Writer, cfg FigureConfig, sc ShardClockConfig) (*ShardClockArtifact, error) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	art := &ShardClockArtifact{
		Experiment:        "shardclock",
		Config:            sc,
		DurationMS:        cfg.Duration.Milliseconds(),
		GOMAXPROCSPerCell: true,
		RepsPerCell:       shardClockReps,
	}
	sharded := fmt.Sprintf("twm-shard%d", sc.Partitions)
	for _, crossFrac := range sc.CrossFracs {
		m := shardClockMicro(sc, crossFrac)
		thr := NewTable(fmt.Sprintf("Shard clock: partitioned counters throughput (txs/s), %.0f%% cross-shard, %d writes/tx",
			crossFrac*100, sc.WritesPerTx),
			append([]string{"engine"}, threadHeaders(cfg.Threads)...)...)
		gain := NewTable(fmt.Sprintf("Shard clock gain over unsharded (%.0f%% cross-shard)", crossFrac*100),
			"threads", "unsharded tx/s", "sharded tx/s", "gain")
		rows := map[string][]string{"twm": {"twm"}, sharded: {sharded}}
		for _, t := range cfg.Threads {
			runtime.GOMAXPROCS(t)
			base, err := medianRun(func() (Result, error) {
				return RunMicro("twm", m, t, cfg.Duration, cfg.Seed, 0)
			})
			if err != nil {
				runtime.GOMAXPROCS(prev)
				return nil, err
			}
			sh, err := medianRun(func() (Result, error) {
				shTM := engines.MustNew("twm", engines.WithClockShards(sc.Partitions, shardClockSharder(sc.VarsPerPartition)))
				return RunMicroOn(shTM, sharded, m, t, cfg.Duration, cfg.Seed)
			})
			runtime.GOMAXPROCS(prev)
			if err != nil {
				return nil, err
			}
			for _, r := range []Result{base, sh} {
				shards := 1
				if r.Engine == sharded {
					shards = sc.Partitions
				}
				art.Cells = append(art.Cells, ShardClockCell{
					Engine:             r.Engine,
					ClockShards:        shards,
					CrossFrac:          crossFrac,
					Threads:            r.Threads,
					Ops:                r.Ops,
					ElapsedNS:          int64(r.Elapsed / time.Nanosecond),
					OpsPerSec:          r.Throughput(),
					Commits:            r.Stats.Commits,
					Aborts:             r.Stats.Aborts,
					AbortRate:          r.Stats.AbortRate(),
					SingleShardCommits: r.Stats.SingleShardCommits,
					CrossShardCommits:  r.Stats.CrossShardCommits,
					ShardCASRetries:    r.Stats.ShardClockCASRetries,
				})
				rows[r.Engine] = append(rows[r.Engine], FormatCount(r.Throughput()))
			}
			gain.AddRow(fmt.Sprintf("%d", t), FormatCount(base.Throughput()), FormatCount(sh.Throughput()),
				fmt.Sprintf("%+.1f%%", (sh.Throughput()/base.Throughput()-1)*100))
		}
		thr.AddRow(rows["twm"]...)
		thr.AddRow(rows[sharded]...)
		thr.Fprint(w)
		gain.Fprint(w)
	}
	ShardCommitClassTable(w, art.Cells)
	return art, nil
}

// ShardCommitClassTable prints the single- vs cross-shard commit accounting
// for every sharded cell, with the fence draw's CAS retries.
func ShardCommitClassTable(w io.Writer, cells []ShardClockCell) {
	any := false
	for _, c := range cells {
		if c.ClockShards > 1 {
			any = true
			break
		}
	}
	if !any {
		return
	}
	tbl := NewTable("Shard commit classes (sharded cells)",
		"cross-frac", "threads", "single-shard", "cross-shard", "cas-retries")
	for _, c := range cells {
		if c.ClockShards <= 1 {
			continue
		}
		tbl.AddRow(fmt.Sprintf("%.0f%%", c.CrossFrac*100), fmt.Sprintf("%d", c.Threads),
			fmt.Sprintf("%d", c.SingleShardCommits), fmt.Sprintf("%d", c.CrossShardCommits),
			fmt.Sprintf("%d", c.ShardCASRetries))
	}
	tbl.Fprint(w)
}
