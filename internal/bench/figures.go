package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/stamp"
)

// FigureConfig controls a sweep: which engines, which thread counts, and the
// per-cell duration for fixed-duration microbenchmarks.
type FigureConfig struct {
	Engines  []string
	Threads  []int
	Duration time.Duration
	Seed     uint64
	// YieldEvery injects a scheduler yield after every N-th transactional
	// barrier, simulating the mid-transaction preemption that real
	// multi-core overlap provides (see WithYield). 0 disables.
	YieldEvery int
}

// Fig3SkipList runs the Fig. 3(a)/(b) sweep and prints throughput and abort
// rate per engine and thread count. It returns all cells for further
// aggregation.
func Fig3SkipList(w io.Writer, cfg FigureConfig, sl SkipListConfig) ([]Result, error) {
	return microFigure(w, cfg, SkipListMicro(sl),
		"Fig 3(a): SkipList throughput (txs/s), 25% updates",
		"Fig 3(b): SkipList abort rate (%)")
}

// Fig4aCounters runs the Fig. 4(a) sweep (two shared counters, 100% writes).
func Fig4aCounters(w io.Writer, cfg FigureConfig) ([]Result, error) {
	return microFigure(w, cfg, CountersMicro(),
		"Fig 4(a): two shared counters throughput (txs/s)",
		"Fig 4(a) companion: abort rate (%)")
}

// Fig4bDisjoint runs the Fig. 4(b) sweep (per-thread skip lists, no
// conflicts).
func Fig4bDisjoint(w io.Writer, cfg FigureConfig, dj DisjointConfig) ([]Result, error) {
	return microFigure(w, cfg, DisjointMicro(dj),
		"Fig 4(b): disjoint SkipLists throughput (txs/s), 100% writes",
		"Fig 4(b) companion: abort rate (%)")
}

func microFigure(w io.Writer, cfg FigureConfig, m Micro, thrTitle, abortTitle string) ([]Result, error) {
	var all []Result
	thr := NewTable(thrTitle, append([]string{"engine"}, threadHeaders(cfg.Threads)...)...)
	ab := NewTable(abortTitle, append([]string{"engine"}, threadHeaders(cfg.Threads)...)...)
	for _, engine := range cfg.Engines {
		thrRow := []string{engine}
		abRow := []string{engine}
		for _, t := range cfg.Threads {
			res, err := RunMicro(engine, m, t, cfg.Duration, cfg.Seed, cfg.YieldEvery)
			if err != nil {
				return nil, err
			}
			all = append(all, res)
			thrRow = append(thrRow, FormatCount(res.Throughput()))
			abRow = append(abRow, fmt.Sprintf("%.1f", res.Stats.AbortRate()*100))
		}
		thr.AddRow(thrRow...)
		ab.AddRow(abRow...)
	}
	thr.Fprint(w)
	ab.Fprint(w)
	return all, nil
}

// Fig4cOverhead runs the per-phase breakdown on the conflict-free disjoint
// workload (the experiment behind Fig. 4(c)) and prints microseconds per
// transaction spent in each phase.
func Fig4cOverhead(w io.Writer, cfg FigureConfig, dj DisjointConfig) ([]Result, error) {
	var all []Result
	tbl := NewTable("Fig 4(c): overhead breakdown on disjoint SkipLists (us per update tx)",
		"engine", "threads", "read", "readSet-val", "writeSet-val", "commit", "total")
	for _, engine := range cfg.Engines {
		for _, t := range cfg.Threads {
			res, err := RunMicroProfiled(engine, DisjointMicro(dj), t, cfg.Duration, cfg.Seed, cfg.YieldEvery)
			if err != nil {
				return nil, err
			}
			all = append(all, res)
			b := res.Breakdown
			tbl.AddRow(engine, fmt.Sprintf("%d", t),
				fmt.Sprintf("%.2f", b.ReadUS),
				fmt.Sprintf("%.2f", b.ReadSetValUS),
				fmt.Sprintf("%.2f", b.WriteSetValUS),
				fmt.Sprintf("%.2f", b.CommitUS),
				fmt.Sprintf("%.2f", b.TotalUS()))
		}
	}
	tbl.Fprint(w)
	return all, nil
}

// Fig5Stamp runs one STAMP application across the sweep, printing time to
// complete (the paper's Fig. 5 metric, lower is better) and abort rates.
func Fig5Stamp(w io.Writer, cfg FigureConfig, mk func() stamp.Workload) ([]Result, error) {
	name := mk().Name()
	var all []Result
	tt := NewTable(fmt.Sprintf("Fig 5: %s time to complete (ms)", name),
		append([]string{"engine"}, threadHeaders(cfg.Threads)...)...)
	ab := NewTable(fmt.Sprintf("Fig 5 companion: %s abort rate (%%)", name),
		append([]string{"engine"}, threadHeaders(cfg.Threads)...)...)
	for _, engine := range cfg.Engines {
		ttRow := []string{engine}
		abRow := []string{engine}
		for _, t := range cfg.Threads {
			res, err := RunStamp(engine, mk, t, cfg.YieldEvery)
			if err != nil {
				return nil, err
			}
			all = append(all, res)
			ttRow = append(ttRow, fmt.Sprintf("%.0f", float64(res.Elapsed.Microseconds())/1000))
			abRow = append(abRow, fmt.Sprintf("%.1f", res.Stats.AbortRate()*100))
		}
		tt.AddRow(ttRow...)
		ab.AddRow(abRow...)
	}
	tt.Fprint(w)
	ab.Fprint(w)
	return all, nil
}

func threadHeaders(threads []int) []string {
	out := make([]string, len(threads))
	for i, t := range threads {
		out[i] = fmt.Sprintf("t=%d", t)
	}
	return out
}
