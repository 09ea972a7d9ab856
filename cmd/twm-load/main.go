// Command twm-load is the open-loop load generator for twm-server: it drives
// a running server at -url and prints the latency/outcome report for it.
//
// Flags:
//
//	-url        twm-server base URL (default http://127.0.0.1:8080)
//	-rate       offered arrivals/second (default 500)
//	-duration   load duration (default 5s)
//	-accounts   key space size (default 1024)
//	-zipf       Zipf skew s for account selection (default 1.1; 0 = uniform)
//	-update     update fraction of traffic (default 0.5)
//	-seed       replayable schedule seed (default 1)
//	-min-commits fail (exit 1) unless at least this many requests commit —
//	             the CI smoke gate
//
// Latency is measured from each request's scheduled arrival, so queueing and
// shedding at an overloaded server widen the reported percentiles instead of
// slowing the generator down (no coordinated omission).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/loadgen"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "twm-load:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("twm-load", flag.ContinueOnError)
	url := fs.String("url", "http://127.0.0.1:8080", "twm-server base URL")
	rate := fs.Float64("rate", 500, "offered arrivals/second")
	duration := fs.Duration("duration", 5*time.Second, "load duration")
	accounts := fs.Int("accounts", 1024, "account key space")
	zipfS := fs.Float64("zipf", 1.1, "Zipf skew (0 = uniform)")
	updatePct := fs.Float64("update", 0.5, "update fraction of traffic")
	seed := fs.Uint64("seed", 1, "replayable schedule seed")
	minCommits := fs.Uint64("min-commits", 0, "fail unless at least this many requests commit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := loadgen.Config{
		Rate:      *rate,
		Duration:  *duration,
		Accounts:  *accounts,
		ZipfS:     *zipfS,
		UpdatePct: *updatePct,
		Seed:      *seed,
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	target := strings.TrimRight(*url, "/")
	res, err := loadgen.Run(ctx, target, cfg)
	if err != nil {
		return err
	}
	report(target, res)
	if res.All.OK < *minCommits {
		return fmt.Errorf("%s committed %d requests, need at least %d", target, res.All.OK, *minCommits)
	}
	return nil
}

// report prints the human-readable outcome table, one row per traffic class.
func report(target string, res loadgen.Result) {
	fmt.Printf("%s: offered %.0f/s, achieved %.0f/s\n", target, res.OfferedRate, res.AchievedRate)
	fmt.Printf("%-6s %8s %8s %6s %6s %6s %9s %9s %9s\n",
		"class", "sent", "ok", "shed", "cancel", "err", "p50ms", "p99ms", "p999ms")
	for _, row := range []struct {
		name string
		st   loadgen.OpStats
	}{{"update", res.Update}, {"ro", res.ReadOnly}, {"all", res.All}} {
		fmt.Printf("%-6s %8d %8d %6d %6d %6d %9.2f %9.2f %9.2f\n",
			row.name, row.st.Sent, row.st.OK, row.st.Shed,
			row.st.Cancelled, row.st.Errors, row.st.P50ms, row.st.P99ms, row.st.P999ms)
	}
}
