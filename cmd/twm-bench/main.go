// Command twm-bench regenerates every table and figure of the paper's
// evaluation (§5 of Diegues & Romano, PPoPP 2014) against this repository's
// STM engines.
//
// Usage:
//
//	twm-bench [flags] <experiment>
//
// Experiments:
//
//	skiplist   Fig. 3(a)+(b): SkipList throughput and abort rate
//	counters   Fig. 4(a): two shared counters (worst-case contention)
//	disjoint   Fig. 4(b): per-thread SkipLists (conflict-free)
//	overhead   Fig. 4(c): per-phase overhead breakdown
//	stamp      Fig. 5 panel for one application (-app)
//	summary    Fig. 5(a)-(h) + Fig. 5(i) + Table 2 (all applications)
//	all        everything above
//
// Flags select engines, thread counts, per-cell duration for the
// microbenchmarks, and input scale. The defaults are container-sized; pass
// -scale paper for the paper's input sizes (skiplist only; STAMP apps use
// their default presets). -csv appends every cell to a machine-readable file.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/engines"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "twm-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("twm-bench", flag.ContinueOnError)
	engineList := fs.String("engines", strings.Join(engines.PaperSet(), ","), "comma-separated engines to run")
	threadList := fs.String("threads", "1,4,8,16,32,64", "comma-separated goroutine counts")
	duration := fs.Duration("duration", 400*time.Millisecond, "per-cell duration for fixed-duration microbenchmarks")
	scale := fs.String("scale", "default", "input scale: default | paper (microbenchmarks) | small")
	app := fs.String("app", "", "application for the stamp experiment (see summary for names)")
	seed := fs.Uint64("seed", 1, "base RNG seed")
	yieldEvery := fs.Int("yield-every", 1, "inject a scheduler yield after every N-th transactional barrier to simulate multi-core overlap on few cores (0 disables)")
	csvPath := fs.String("csv", "", "also append machine-readable results to this CSV file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("expected exactly one experiment, got %d", fs.NArg())
	}
	exp := fs.Arg(0)

	threads, err := parseThreads(*threadList)
	if err != nil {
		return err
	}
	engineNames := strings.Split(*engineList, ",")
	for _, e := range engineNames {
		if _, err := engines.New(e); err != nil {
			return err
		}
	}
	cfg := bench.FigureConfig{Engines: engineNames, Threads: threads, Duration: *duration, Seed: *seed, YieldEvery: *yieldEvery}

	sl := bench.DefaultSkipList()
	if *scale == "paper" {
		sl = bench.PaperSkipList()
	}
	dj := bench.DefaultDisjoint()
	stampScale := "default"
	if *scale == "small" {
		stampScale = "small"
		sl = bench.SkipListConfig{Elements: 1000, KeyRange: 2000, UpdatePct: 0.25, Seed: *seed}
		dj = bench.DisjointConfig{ElementsPerList: 200, KeyRange: 400, Seed: *seed}
	}

	out := os.Stdout
	emit, closeCSV, err := csvSink(*csvPath)
	if err != nil {
		return err
	}
	defer closeCSV()

	switch exp {
	case "skiplist":
		res, err := bench.Fig3SkipList(out, cfg, sl)
		return emit("fig3-skiplist", res, err)
	case "counters":
		res, err := bench.Fig4aCounters(out, cfg)
		return emit("fig4a-counters", res, err)
	case "disjoint":
		res, err := bench.Fig4bDisjoint(out, cfg, dj)
		return emit("fig4b-disjoint", res, err)
	case "overhead":
		res, err := bench.Fig4cOverhead(out, cfg, dj)
		return emit("fig4c-overhead", res, err)
	case "stamp":
		apps, err := bench.StampApps(stampScale)
		if err != nil {
			return err
		}
		mk, ok := apps[*app]
		if !ok {
			return fmt.Errorf("unknown app %q (have %v)", *app, bench.StampAppNames())
		}
		res, err := bench.Fig5Stamp(out, cfg, mk)
		return emit("fig5-"+*app, res, err)
	case "summary":
		return summary(cfg, stampScale, emit)
	case "all":
		if res, err := bench.Fig3SkipList(out, cfg, sl); emit("fig3-skiplist", res, err) != nil {
			return err
		}
		if res, err := bench.Fig4aCounters(out, cfg); emit("fig4a-counters", res, err) != nil {
			return err
		}
		if res, err := bench.Fig4bDisjoint(out, cfg, dj); emit("fig4b-disjoint", res, err) != nil {
			return err
		}
		if res, err := bench.Fig4cOverhead(out, cfg, dj); emit("fig4c-overhead", res, err) != nil {
			return err
		}
		return summary(cfg, stampScale, emit)
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
}

// emitFunc forwards a figure's results to the optional CSV sink.
type emitFunc func(experiment string, results []bench.Result, err error) error

// csvSink opens the optional CSV file and returns the emit hook.
func csvSink(path string) (emitFunc, func(), error) {
	if path == "" {
		return func(_ string, _ []bench.Result, err error) error { return err }, func() {}, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	if info, err := f.Stat(); err == nil && info.Size() == 0 {
		if err := bench.CSVHeader(f); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	emit := func(experiment string, results []bench.Result, err error) error {
		if err != nil {
			return err
		}
		return bench.WriteCSV(f, experiment, results)
	}
	return emit, func() { f.Close() }, nil
}

// summary runs every STAMP panel and prints Fig. 5(i) and Table 2.
func summary(cfg bench.FigureConfig, scale string, emit emitFunc) error {
	apps, err := bench.StampApps(scale)
	if err != nil {
		return err
	}
	var sum bench.Summary
	for _, name := range bench.StampAppNames() {
		results, err := bench.Fig5Stamp(os.Stdout, cfg, apps[name])
		if err := emit("fig5-"+name, results, err); err != nil {
			return err
		}
		sum.Add(name, results)
	}
	ref := "twm"
	found := false
	for _, e := range cfg.Engines {
		if e == ref {
			found = true
		}
	}
	if found {
		sum.Fig5iSpeedups(os.Stdout, ref)
	}
	sum.Table2(os.Stdout)
	sum.ReasonHistogram(os.Stdout)
	sum.StampElision(os.Stdout)
	return nil
}

func parseThreads(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad thread count %q", p)
		}
		out = append(out, n)
	}
	return out, nil
}
