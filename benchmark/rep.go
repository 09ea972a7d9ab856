package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"

	"repro/internal/stm"
)

type workloadKind uint8

const (
	kindList workloadKind = iota
	kindSkip
	kindServer
)

// workload is one set of inputs. The names are final: later issues cite them.
type workload struct {
	name string
	why  string
	kind workloadKind

	engine    string
	readShare float64

	keys     int   // set workloads: initial size
	keyRange int64 // set workloads: keys are drawn from [0, keyRange)

	accounts int     // srv-*: accounts, each opened with initialBalance
	zipfS    float64 // srv-*: Zipf exponent of account popularity
	durable  bool    // srv-durable: WAL on, per-commit fsync
	openRate float64 // open loop: Poisson arrivals per second; 0 is a closed loop

	sampleEvery int // traced run: time one transaction (or request) in this many

	// slice is how long a slice of the window is (README, "Slices and the quiet
	// quartile"): long enough that the thinner class leaves ten samples beyond
	// its p99 in each, short enough that a window holds several.
	slice time.Duration

	// byHandOnly keeps the workload out of BENCHMARK.json: the driver accepts a
	// benchmark only if ten runs of every listed workload spread by less than
	// the bound between their quartiles, and what fsync costs on this
	// container's disk drifts by more than that within minutes (README,
	// "srv-durable and the driver").
	byHandOnly bool
}

// initialBalance is large enough that no generated transfer (amount 1) can be
// refused for insufficient funds: no operation of any workload should fail.
const initialBalance = 1_000_000

var workloads = []*workload{
	{
		name: "list-warp", kind: kindList, engine: "twm",
		why:  "paper sec. 1.1: long list traversals whose stale reads classic validation aborts and time-warp commits; core read stamps, triad validation and the stm retry loop do the work",
		keys: 2048, keyRange: 4096, readShare: 0.10, sampleEvery: 16, slice: time.Second,
	},
	{
		name: "skip-read", kind: kindSkip, engine: "twm",
		why:  "paper sec. 5.1 at the other end: short, mostly read-only transactions over a set well past L2, abort share near 0; raw barrier, descriptor-pool and version-GC cost",
		keys: 65536, keyRange: 131072, readShare: 0.90, sampleEvery: 64, slice: time.Second,
	},
	{
		name: "srv-volatile", kind: kindServer, engine: "twm",
		why:      "the serving stack with storage out of the way: closed loop over keep-alive connections, CPU-bound in net/http, JSON, admission gate and async hand-off; wal bypassed",
		accounts: 1024, zipfS: 1.2, readShare: 0.10, sampleEvery: 8, slice: time.Second,
	},
	{
		name: "srv-durable", kind: kindServer, engine: "twm-gc",
		why:      "ROADMAP's end to end: an open loop of independent users; every transfer waits for its WAL fsync (per-commit) before the reply, reads bypass gate and log and must not wait behind them",
		accounts: 1024, zipfS: 1.1, readShare: 0.50, durable: true, openRate: 300, sampleEvery: 8, slice: 10 * time.Second, byHandOnly: true,
	},
}

func findWorkload(name string) *workload {
	for _, wl := range workloads {
		if wl.name == name {
			return wl
		}
	}
	return nil
}

// spanCapPerSink bounds the spans one sink keeps, so a traced list-warp run
// (about a thousand read spans per sampled operation) stays in memory. Timing
// aggregates keep accumulating past it.
const spanCapPerSink = 1 << 16

// repConfig is everything one repetition needs.
type repConfig struct {
	wl      *workload
	seed    int64
	dur     time.Duration
	traced  bool
	workers int
	scratch string // directory for WAL and recovery copies
	engine  string // overrides wl.engine (the twm-notw and jvstm controls)

	setupOnly bool // set up, time it, tear down: one more setup_s sample
}

func (rc repConfig) engineName() string {
	if rc.engine != "" {
		return rc.engine
	}
	return rc.wl.engine
}

// sampleCap sizes a worker's latency buffers ahead of the window, so growing
// them is not charged to the program under test.
func (rc repConfig) sampleCap() int {
	perSec := 400_000.0 // a worker's rate on the set workloads stays below this on reference hardware
	switch {
	case rc.wl.openRate > 0:
		perSec = rc.wl.openRate
	case rc.wl.kind == kindServer:
		perSec = 60_000
	}
	return int(perSec*rc.dur.Seconds()) + 1024
}

// repResult is what one repetition measured.
type repResult struct {
	rc     repConfig
	setupS float64
	window time.Duration

	attempted, failed uint64
	updates, reads    int                  // operations of each class that completed
	slices            []map[string]float64 // the sliced end-to-end metrics of every complete slice of the window

	layer map[string]float64 // per-layer metrics this repetition could measure
	sinks []*sink            // traced: spans to write out

	abortShare     float64 // engine aborts/(commits+aborts) over the window
	walRecordBytes float64 // srv-durable: mean size of the log records left after the window
	stampRetries   uint64  // failed read-stamp CASes over the window
	genBufBytes    uint64  // generator-owned buffers, subtracted from the live heap
	errs           []string
	notes          []string
}

func newRepResult(rc repConfig) *repResult {
	return &repResult{rc: rc, layer: make(map[string]float64)}
}

func (r *repResult) fail(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

func (r *repResult) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// slice is the slice length of this repetition: the workload's, or the whole
// window when that is shorter.
func (rc repConfig) slice() time.Duration { return min(rc.wl.slice, rc.dur) }

// samples is one worker's latency samples in completion order, with a mark at
// the end of every slice of the window.
type samples struct {
	updates, reads []int64  // ns
	marks          [][2]int // marks[i]: how many updates and reads had completed when slice i ended
	next           time.Time
	every          time.Duration
}

// newSamples sizes the buffers ahead of the window, so growing them is not
// charged to the program under test.
func newSamples(rc repConfig, res *repResult) samples {
	n := rc.sampleCap()
	res.genBufBytes += 2 * 8 * uint64(n)
	return samples{updates: make([]int64, 0, n), reads: make([]int64, 0, n), marks: make([][2]int, 0, rc.dur/rc.slice()+2), every: rc.slice()}
}

func (s *samples) open(start time.Time) { s.next = start.Add(s.every) }

// tick takes the completion time of an operation before the operation is
// recorded: it belongs to the slice it completed in.
func (s *samples) tick(now time.Time) {
	for !now.Before(s.next) {
		s.marks = append(s.marks, [2]int{len(s.updates), len(s.reads)})
		s.next = s.next.Add(s.every)
	}
}

func (s *samples) record(read bool, ns int64) {
	if read {
		s.reads = append(s.reads, ns)
	} else {
		s.updates = append(s.updates, ns)
	}
}

// tally merges the workers' samples slice by slice into res. A slice counts
// once every worker has marked its end; what follows the last is dropped.
func (res *repResult) tally(workers []*samples) {
	n := len(workers[0].marks)
	for _, w := range workers {
		n = min(n, len(w.marks))
		res.updates += len(w.updates)
		res.reads += len(w.reads)
	}
	var upd, read []int64
	for i := 0; i < n; i++ {
		upd, read = upd[:0], read[:0]
		for _, w := range workers {
			var from [2]int
			if i > 0 {
				from = w.marks[i-1]
			}
			upd = append(upd, w.updates[from[0]:w.marks[i][0]]...)
			read = append(read, w.reads[from[1]:w.marks[i][1]]...)
		}
		slices.Sort(upd)
		slices.Sort(read)
		res.slices = append(res.slices, map[string]float64{
			"ops_per_s":     float64(len(upd)+len(read)) / workers[0].every.Seconds(),
			"update_p50_us": quantile(upd, 0.50) / 1e3,
			"update_p99_us": p99(upd) / 1e3,
			"read_p50_us":   quantile(read, 0.50) / 1e3,
			"read_p99_us":   p99(read) / 1e3,
		})
	}
	res.attempted = uint64(res.updates+res.reads) + res.failed
}

// sliceValues gathers one metric's value in every slice of the repetitions.
func sliceValues(name string, reps ...*repResult) []float64 {
	var vs []float64
	for _, r := range reps {
		for _, sl := range r.slices {
			vs = append(vs, sl[name])
		}
	}
	return vs
}

// e2e returns the repetition's end-to-end metrics by name, failed_share too:
// the sliced ones as the quiet quartile of its own slices.
func (r *repResult) e2e() map[string]float64 {
	out := map[string]float64{"setup_s": r.setupS, "failed_share": share(r.failed, r.attempted)}
	for _, d := range endToEnd {
		if d.name != "setup_s" {
			out[d.name] = d.quiet(sliceValues(d.name, r))
		}
	}
	return out
}

// window brackets the measured interval with the counters that are read from
// outside: the engine's Stats and the Go runtime's.
type window struct {
	stats *stm.Stats
	snap  stm.Snapshot
	mem   runtime.MemStats
	cpu   [2]float64 // gc, total cpu-seconds
}

// readCPU returns the runtime's estimate of GC and of all CPU seconds so far.
func readCPU() (out [2]float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	for i := range s {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// openWindow snapshots the counters; tm may be nil when the engine is not
// reachable yet.
func openWindow(tm stm.TM) *window {
	w := &window{}
	if tm != nil {
		w.stats = tm.Stats()
		w.snap = w.stats.Snapshot()
	}
	runtime.GC() // start every window from a collected heap
	runtime.ReadMemStats(&w.mem)
	w.cpu = readCPU()
	return w
}

// close fills res with the counter deltas over the window. The allocation
// totals become per-operation ratios in perOp, once the operations are tallied.
func (w *window) close(res *repResult) {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	cpu := readCPU()
	res.layer["go.gc_cpu_share"] = 0
	if d := cpu[1] - w.cpu[1]; d > 0 {
		res.layer["go.gc_cpu_share"] = (cpu[0] - w.cpu[0]) / d
	}
	allocB, allocs := mem.TotalAlloc-w.mem.TotalAlloc, mem.Mallocs-w.mem.Mallocs
	// Two collections: the first frees what the window's last cycle marked,
	// the second what finalizers and pools released — what is left is retained
	// state (version chains, ledger, set), plus the generator's own buffers.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&mem)
	live := float64(mem.HeapAlloc) - float64(res.genBufBytes)
	res.layer["go.live_heap_mb"] = math.Max(live, 0) / (1 << 20)
	res.layer["go.alloc_b_per_op"] = float64(allocB)
	res.layer["go.allocs_per_op"] = float64(allocs)

	if w.stats != nil {
		d := snapDelta(w.snap, w.stats.Snapshot())
		res.statsLayer(d)
	}
}

// perOp turns the window's allocation totals into per-operation ratios once
// the operation count is known.
func (r *repResult) perOp() {
	ops := float64(r.attempted - r.failed)
	if ops <= 0 {
		ops = 1
	}
	r.layer["go.alloc_b_per_op"] /= ops
	r.layer["go.allocs_per_op"] /= ops
}

// snapDelta returns after − before for the counters the benchmark reports.
func snapDelta(before, after stm.Snapshot) stm.Snapshot {
	d := stm.Snapshot{
		Starts:           after.Starts - before.Starts,
		Commits:          after.Commits - before.Commits,
		ROCommits:        after.ROCommits - before.ROCommits,
		Aborts:           after.Aborts - before.Aborts,
		StampCASRetries:  after.StampCASRetries - before.StampCASRetries,
		GroupBatches:     after.GroupBatches - before.GroupBatches,
		GroupBatchTxs:    after.GroupBatchTxs - before.GroupBatchTxs,
		BatchSpills:      after.BatchSpills - before.BatchSpills,
		CombinerHandoffs: after.CombinerHandoffs - before.CombinerHandoffs,
		ByReason:         make(map[string]uint64),
	}
	for k, v := range after.ByReason {
		d.ByReason[k] = v - before.ByReason[k]
	}
	return d
}

// statsLayer derives the metrics that come straight from Stats().Snapshot().
func (r *repResult) statsLayer(d stm.Snapshot) {
	execs := d.Commits + d.Aborts
	r.abortShare = share(d.Aborts, execs)
	l := r.layer
	l["stm.attempts_per_commit"] = mean(float64(execs), int64(d.Commits))
	l["core.abort_share"] = r.abortShare
	l["core.abort_triad_share"] = share(d.ByReason[stm.ReasonTriad.String()], execs)
	l["core.abort_twskip_share"] = share(d.ByReason[stm.ReasonTimeWarpSkip.String()], execs)
	l["core.abort_locktimeout_share"] = share(d.ByReason[stm.ReasonLockTimeout.String()], execs)
	l["core.abort_readconflict_share"] = share(d.ByReason[stm.ReasonReadConflict.String()], execs)
	l["mvutil.batch_mean_size"] = d.MeanBatchSize()
	l["mvutil.handoff_share"] = share(d.CombinerHandoffs, d.Commits-d.ROCommits)
	l["mvutil.batch_spills"] = float64(d.BatchSpills)
	r.stampRetries = d.StampCASRetries
}

// coreLayer derives the barrier metrics from the timing wrapper's aggregate.
// Every timed interval contains one clock read; clockNS takes it back out.
func (r *repResult) coreLayer(c *coreAgg, every int) {
	l := r.layer
	l["core.begin_ns"] = mean(float64(c.beginNS), c.sAttempts) - clockNS
	l["core.read_ns"] = mean(float64(c.readNS), c.sReads) - clockNS
	l["core.write_ns"] = mean(float64(c.writeNS), c.sWrites) - clockNS
	l["core.commit_us"] = (mean(float64(c.commitNS), c.commits) - clockNS) / 1e3
	l["core.commit_ro_ns"] = mean(float64(c.commitRONS), c.commitsRO) - clockNS
	l["core.abort_ns"] = mean(float64(c.abortNS), c.aborts) - clockNS
	l["core.reads_per_attempt"] = mean(float64(c.reads), c.attempts)
	// Sampled barrier time scaled back up, over the processor time available.
	l["core.busy_share"] = (float64(c.barrierNS()) - clockNS*float64(c.timedCalls())) * float64(every) / (float64(r.rc.workers) * float64(r.window))
	l["mvutil.stamp_cas_retries_per_kread"] = mean(float64(r.stampRetries)*1e3, c.reads)
}
