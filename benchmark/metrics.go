package main

import (
	"math"
	"sort"
)

// metricDef names one reported number. The tables below are the single source
// of the metric names; BENCHMARK.json lists the same names and bench_test.go
// asserts that the two agree.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: allowed worsening as a share of the reference median

	// durableOnly marks a per-layer metric only srv-durable can report. That
	// workload runs by hand, so BENCHMARK.json does not list these: the driver
	// would read 0 on every run.
	durableOnly bool
}

// endToEnd are the metrics a user of the system sees. failed_share is the
// seventh; it is reported beside them but kept out of this table because it is
// 0 on every healthy run and its bound is absolute (+0.001), not relative.
//
// One bound serves a metric on every workload (BENCHMARK.json has one per
// metric), so the noisiest listed workload sets it: each is the issue's bound
// (10 % throughput and medians, 15 % p99) raised to three times the widest
// ten-seed quartile spread measured in this container (README, "Reference
// numbers"), and capped at the contract's 25 %.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "update_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "update_p99_us", unit: "us", better: "lower", bound: 0.25},
	{name: "read_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "read_p99_us", unit: "us", better: "lower", bound: 0.25},
}

// failedShareBound is the absolute amount failed_share may rise.
const failedShareBound = 0.001

// setupFloorS widens setup_s's bound to max(25 %, 0.1 s): the library
// workloads set up in a few milliseconds, where 25 % is scheduler noise.
const setupFloorS = 0.1

// perLayer are the single-layer metrics, taken from outside each layer. A
// metric that does not apply to a workload (server.* on list-warp, ds.* on
// srv-volatile) is printed as n/a and reported to the driver as 0.
var perLayer = []metricDef{
	{name: "gen.attempted", unit: "count", better: "higher"},
	{name: "gen.late_p50_us", unit: "us", better: "lower", durableOnly: true},
	{name: "gen.late_p99_us", unit: "us", better: "lower", durableOnly: true},
	{name: "gen.queued_share", unit: "share", better: "lower", durableOnly: true},

	{name: "server.handler_p50_us", unit: "us", better: "lower"},
	{name: "server.handler_self_us", unit: "us", better: "lower"},
	{name: "server.transport_us", unit: "us", better: "lower"},
	{name: "server.shed_share", unit: "share", better: "lower"},
	{name: "server.cancel_share", unit: "share", better: "lower"},
	{name: "server.gate_overloads", unit: "count", better: "lower"},

	{name: "stm.attempts_per_commit", unit: "count", better: "lower"},
	{name: "stm.retry_wait_us_per_op", unit: "us", better: "lower"},
	{name: "stm.atomically_p99_us", unit: "us", better: "lower"},

	{name: "core.begin_ns", unit: "ns", better: "lower"},
	{name: "core.read_ns", unit: "ns", better: "lower"},
	{name: "core.write_ns", unit: "ns", better: "lower"},
	{name: "core.commit_us", unit: "us", better: "lower"},
	{name: "core.commit_ro_ns", unit: "ns", better: "lower"},
	{name: "core.abort_ns", unit: "ns", better: "lower"},
	{name: "core.reads_per_attempt", unit: "count", better: "lower"},
	{name: "core.busy_share", unit: "share", better: "lower"},
	{name: "core.abort_share", unit: "share", better: "lower"},
	{name: "core.abort_triad_share", unit: "share", better: "lower"},
	{name: "core.abort_twskip_share", unit: "share", better: "lower"},
	{name: "core.abort_locktimeout_share", unit: "share", better: "lower"},
	{name: "core.abort_readconflict_share", unit: "share", better: "lower"},
	{name: "core.aborts_avoided_share", unit: "share", better: "higher"},

	{name: "mvutil.batch_mean_size", unit: "count", better: "higher"},
	{name: "mvutil.handoff_share", unit: "share", better: "higher"},
	{name: "mvutil.batch_spills", unit: "count", better: "lower"},
	{name: "mvutil.stamp_cas_retries_per_kread", unit: "count", better: "lower"},

	{name: "wal.append_us", unit: "us", better: "lower", durableOnly: true},
	{name: "wal.durable_p50_us", unit: "us", better: "lower", durableOnly: true},
	{name: "wal.durable_p99_us", unit: "us", better: "lower", durableOnly: true},
	{name: "wal.records_per_commit", unit: "count", better: "lower", durableOnly: true},
	{name: "wal.bytes_per_commit", unit: "B", better: "lower", durableOnly: true},
	{name: "wal.checkpoint_ms", unit: "ms", better: "lower", durableOnly: true},
	{name: "wal.recover_ms", unit: "ms", better: "lower", durableOnly: true},
	{name: "wal.recover_records", unit: "count", better: "lower", durableOnly: true},

	{name: "ds.body_self_us", unit: "us", better: "lower"},
	{name: "ds.reads_per_op", unit: "count", better: "lower"},

	{name: "jvstm.ref_ops_per_s", unit: "1/s", better: "higher"},
	{name: "jvstm.ref_abort_share", unit: "share", better: "lower"},

	{name: "go.alloc_b_per_op", unit: "B", better: "lower"},
	{name: "go.allocs_per_op", unit: "count", better: "lower"},
	{name: "go.gc_cpu_share", unit: "share", better: "lower"},
	{name: "go.live_heap_mb", unit: "MB", better: "lower"},

	{name: "trace.overhead_share", unit: "share", better: "lower"},
}

// driverMetrics are the metrics a driver run of wl reports: the end-to-end
// ones with trace 0, and with trace 1 the per-layer ones BENCHMARK.json lists
// (srv-durable, by hand, carries its own as well).
func driverMetrics(wl *workload, trace int) []metricDef {
	if trace == 0 {
		return endToEnd
	}
	var out []metricDef
	for _, d := range perLayer {
		if !d.durableOnly || wl.durable {
			out = append(out, d)
		}
	}
	return out
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted by linear
// interpolation between closest ranks, so a value printed from a large sample
// keeps all its digits instead of snapping to one observation. NaN when empty.
func quantile(sorted []int64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return float64(sorted[lo])*(1-frac) + float64(sorted[hi])*frac
}

// p99 is the 99th percentile as the end-to-end metrics report it: the mean of
// the 98.5th, 99th and 99.5th. Where the distribution is smooth there the three
// agree. On skip-read and srv-volatile the 99th sits on a step (an operation
// that a timer tick or a collection lands in costs three to ten times the
// rest, and about 1 % of them are), so the plain percentile swings with the
// share of such operations and repeats twice as badly as the rest of the
// distribution (README, "Slices and the quiet quartile").
func p99(sorted []int64) float64 {
	return (quantile(sorted, 0.985) + quantile(sorted, 0.99) + quantile(sorted, 0.995)) / 3
}

// quantileOf returns the q-quantile of xs by linear interpolation between
// closest ranks, ignoring NaNs. NaN when nothing is left.
func quantileOf(xs []float64, q float64) float64 {
	s := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) {
			s = append(s, x)
		}
	}
	if len(s) == 0 {
		return math.NaN()
	}
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// median returns the middle of xs (mean of the two middles when even),
// ignoring NaNs. NaN when nothing is left.
func median(xs []float64) float64 { return quantileOf(xs, 0.5) }

// quiet returns the quartile of the slices' values on d's better side: the
// first for a latency, the third for a rate. Whatever else runs on the host
// only ever slows a slice down, so this is the value the program reaches in
// the quieter slices of the run (README, "Slices and the quiet quartile").
func (d metricDef) quiet(slices []float64) float64 {
	if d.better == "higher" {
		return quantileOf(slices, 0.75)
	}
	return quantileOf(slices, 0.25)
}

// minMax returns the extremes of xs, ignoring NaNs.
func minMax(xs []float64) (lo, hi float64) {
	lo, hi = math.NaN(), math.NaN()
	for _, x := range xs {
		if math.IsNaN(x) {
			continue
		}
		if math.IsNaN(lo) || x < lo {
			lo = x
		}
		if math.IsNaN(hi) || x > hi {
			hi = x
		}
	}
	return lo, hi
}

// mean returns total/n, or NaN when n is 0.
func mean(total float64, n int64) float64 {
	if n == 0 {
		return math.NaN()
	}
	return total / float64(n)
}

// share returns part/whole, or 0 when whole is 0 (no attempts, no failures).
func share(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// worsening is how much worse cur is than ref, as a share of ref, in the
// direction d.better says is worse; negative when cur is better.
func (d metricDef) worsening(ref, cur float64) float64 {
	if ref == 0 {
		return 0
	}
	if d.better == "lower" {
		return (cur - ref) / ref
	}
	return (ref - cur) / ref
}

// allowed is d's regression bound against the reference value ref.
func (d metricDef) allowed(ref float64) float64 {
	if d.name == "setup_s" && ref > 0 && setupFloorS/ref > d.bound {
		return setupFloorS / ref
	}
	return d.bound
}
