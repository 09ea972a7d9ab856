// Command benchmark is the repository's one ruler: four workloads, seven
// end-to-end metrics each, and per-layer numbers taken from outside the layers.
// See README.md for the tables; BENCHMARK.json describes it to the driver.
//
//	go run .                                 # every workload: 5 × 10 s untraced, then 5 s traced
//	go run . -workloads list-warp -dur 2s    # one workload, shorter
//	go run . -repeat-sets 2                  # two sets; fail if their values disagree
//	go run . -workload skip-read -seed 7 -seconds 15 -trace 0   # the driver's contract: last line is JSON
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

type options struct {
	seed       int64
	workloads  string
	reps       int
	dur        time.Duration
	traceDur   time.Duration
	traceOut   string
	repeatSets int

	// The driver's contract: one workload, one JSON line. driverOptions maps
	// these onto the fields above, so both ways in measure on the same path.
	workload string
	seconds  int
	trace    int

	controlDur time.Duration // of each control; the traced repetition's length by hand
	setups     int           // setup_s is the median of at least this many set-ups
}

func main() {
	var o options
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same operation schedules")
	flag.StringVar(&o.workloads, "workloads", "", "comma-separated workloads to run (default: all four)")
	// Five, not three (the issue's own remedy for a p99 that does not repeat):
	// srv-durable's window is a single slice, and its disk spoils about one
	// window in three with a stall of tens to hundreds of milliseconds.
	flag.IntVar(&o.reps, "reps", 5, "untraced repetitions per workload; end-to-end metrics are the quiet quartile of their slices")
	flag.DurationVar(&o.dur, "dur", 10*time.Second, "measured window of one untraced repetition")
	flag.DurationVar(&o.traceDur, "trace-dur", 5*time.Second, "measured window of the traced repetition and of each control")
	flag.StringVar(&o.traceOut, "trace-out", "", "write spans here as JSON lines (default: twm-benchmark-spans.jsonl in the system's temporary directory)")
	flag.IntVar(&o.repeatSets, "repeat-sets", 1, "run this many complete sets and fail if their values disagree beyond the bounds")
	flag.StringVar(&o.workload, "workload", "", "driver contract: run this one workload for -seconds and print one JSON object as the last line")
	flag.IntVar(&o.seconds, "seconds", 0, "driver contract: total measured seconds of the run")
	flag.IntVar(&o.trace, "trace", 0, "driver contract: 0 reports the end-to-end metrics, 1 the per-layer metrics")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	code, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// driverReps is how many repetitions a driver run splits -seconds into: of its
// 36 s, four windows of nine whole slices.
const driverReps = 4

// driverOptions maps the driver's contract onto the by-hand flags. With
// -trace 0 the whole of -seconds goes to driverReps untraced repetitions; with
// -trace 1 a third is one untraced repetition (the base of
// trace.overhead_share and the go.* numbers), a third the traced one, and the
// controls get a sixth each (at most two run: twm-notw on list-warp, jvstm).
func driverOptions(o options) (options, error) {
	if o.seconds < 1 {
		return o, fmt.Errorf("-workload needs -seconds")
	}
	total := time.Duration(o.seconds) * time.Second
	o.workloads, o.repeatSets = o.workload, 1
	if o.trace == 0 {
		o.reps, o.dur, o.traceDur = driverReps, total/driverReps, 0
	} else {
		o.reps, o.dur, o.traceDur, o.controlDur, o.setups = 1, total/3, total/3, total/6, 0
	}
	return o, nil
}

// env is the hardware and build the numbers belong to.
type env struct {
	numCPU, workers int
	goVersion       string
	commit          string
}

// workerCount is W: GOMAXPROCS, worker goroutines and HTTP connections.
func workerCount() int { return min(runtime.NumCPU(), 4) }

// readEnv records the hardware and build. The commit is asked of git only by
// hand: the driver's checkout is not a repository, and git would go looking
// for one above it.
func readEnv(byHand bool) env {
	e := env{numCPU: runtime.NumCPU(), workers: workerCount(), goVersion: runtime.Version(), commit: "unknown"}
	if byHand {
		if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
			e.commit = strings.TrimSpace(string(out))
		}
	}
	return e
}

// run executes the benchmark and returns the process exit code: 0 when every
// correctness check (and, with -repeat-sets, every agreement check) passed.
func run(o options, out io.Writer) (int, error) {
	byHand := o.workload == ""
	e := readEnv(byHand)
	runtime.GOMAXPROCS(e.workers)

	if o.reps < 1 || o.repeatSets < 1 || o.dur <= 0 || o.traceDur <= 0 {
		return 0, fmt.Errorf("-reps, -repeat-sets, -dur and -trace-dur must be positive")
	}
	o.controlDur, o.setups = o.traceDur, setupSamples
	if !byHand {
		var err error
		if o, err = driverOptions(o); err != nil {
			return 0, err
		}
	}
	selected := workloads
	if o.workloads != "" {
		selected = nil
		for _, name := range strings.Split(o.workloads, ",") {
			wl := findWorkload(name)
			if wl == nil {
				return 0, fmt.Errorf("unknown workload %q", name)
			}
			selected = append(selected, wl)
		}
	}

	// WAL files live here during a repetition; nothing is written inside the
	// repository. (run.sh points TMPDIR into the driver's checkout.)
	scratch, err := os.MkdirTemp("", "twm-benchmark-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(scratch)
	var spans io.Writer
	if o.traceDur > 0 {
		if o.traceOut == "" {
			o.traceOut = filepath.Join(os.TempDir(), "twm-benchmark-spans.jsonl")
		}
		f, err := os.Create(o.traceOut)
		if err != nil {
			return 0, err
		}
		defer f.Close()
		spans = f
	}

	fmt.Fprintf(out, "# twm benchmark: commit=%s %s num_cpu=%d GOMAXPROCS=%d W=%d seed=%d\n",
		e.commit, e.goVersion, e.numCPU, e.workers, e.workers, o.seed)
	fmt.Fprintf(out, "# %d set(s) of %d × %v untraced + %v traced per workload; spans -> %s\n", o.repeatSets, o.reps, o.dur, o.traceDur, o.traceOut)

	failed := false
	sets := make([][]*summary, o.repeatSets)
	for set := range sets {
		for i, wl := range selected {
			fmt.Fprintf(out, "== %s (set %d/%d): %s\n", wl.name, set+1, o.repeatSets, wl.why)
			p := plan{
				seed: o.seed, workers: e.workers, scratch: scratch,
				reps: o.reps, setups: o.setups, dur: o.dur, traceDur: o.traceDur, controlDur: o.controlDur,
				jvstmRef: i == 0, // once per set
				spans:    spans,
			}
			s, err := measure(wl, p, out)
			if err != nil {
				return 0, err
			}
			if i > 0 { // every workload of the set shows the set's reference
				s.layer["jvstm.ref_ops_per_s"] = sets[set][0].layer["jvstm.ref_ops_per_s"]
				s.layer["jvstm.ref_abort_share"] = sets[set][0].layer["jvstm.ref_abort_share"]
			}
			s.print(out)
			failed = failed || len(s.errs) > 0 || s.failed > 0
			sets[set] = append(sets[set], s)
		}
	}
	for set := 1; set < len(sets); set++ {
		if !agree(sets[0], sets[set], set+1, out) {
			failed = true
		}
	}
	if failed {
		fmt.Fprintln(out, "# FAILED: see CHECK FAILED and DISAGREE lines above")
	} else {
		fmt.Fprintln(out, "# all correctness checks passed")
	}
	if !byHand {
		line, err := json.Marshal(driverResult(sets[0][0], o.trace))
		if err != nil {
			return 0, err
		}
		fmt.Fprintf(out, "%s\n", line)
	}
	if failed {
		return 1, nil
	}
	return 0, nil
}

// setup_s is the median of at least setupSamples set-ups, and of as many more
// as fit in setupBudget.
const (
	setupSamples = 7
	setupBudget  = time.Second
)

// plan is how one workload's set of repetitions is laid out.
type plan struct {
	seed       int64
	workers    int
	scratch    string
	reps       int           // untraced repetitions
	setups     int           // setup_s is the median of at least this many set-ups; 0: of the repetitions' own
	dur        time.Duration // of each
	traceDur   time.Duration // traced repetition; 0 skips it and every control
	controlDur time.Duration // each of: twm-notw control, WAL probe, jvstm reference
	jvstmRef   bool          // measure the jvstm reference inside this workload's set
	spans      io.Writer     // nil: spans are dropped
}

// summary is one workload's numbers over one set.
type summary struct {
	wl      *workload
	e2e     map[string][3]float64 // value, min, max over the slices of the untraced repetitions (setup_s, failed_share: over the repetitions)
	slices  int                   // how many slices that was
	samples [2]int                // update and read latency samples in them
	layer   map[string]float64    // per-layer metrics; absent means not applicable
	traced  bool                  // the traced repetition ran
	spans   int

	attempted, failed uint64
	errs              []string
	notes             []string
}

// absorb takes a repetition's checks and notes into the summary. Only the
// measured repetitions (untraced and traced) count towards attempted and
// failed; a control that lost operations fails a check instead, so that its
// operations do not dilute the measured failure share.
func (s *summary) absorb(r *repResult, label string, control bool) {
	if control {
		if r.failed > 0 {
			s.errs = append(s.errs, fmt.Sprintf("%s: %d of %d operations failed", label, r.failed, r.attempted))
		}
	} else {
		s.attempted += r.attempted
		s.failed += r.failed
	}
	for _, e := range r.errs {
		s.errs = append(s.errs, label+": "+e)
	}
	for _, n := range r.notes {
		s.notes = append(s.notes, label+": "+n)
	}
}

func runRep(rc repConfig) (*repResult, error) {
	// Whatever the last repetition left for the collector is not charged to
	// this one's set-up.
	runtime.GC()
	if rc.wl.kind == kindServer {
		return runSrv(rc)
	}
	return runLib(rc)
}

// measure runs one workload's set: reps untraced repetitions with fresh state
// each, then one traced repetition and the controls.
func measure(wl *workload, p plan, out io.Writer) (*summary, error) {
	s := &summary{wl: wl, e2e: make(map[string][3]float64), layer: make(map[string]float64)}
	rc := repConfig{wl: wl, seed: p.seed, dur: p.dur, workers: p.workers, scratch: p.scratch}

	var reps []*repResult
	perRep := make(map[string][]float64) // setup_s, failed_share and go.*: one value a repetition
	for i := 0; i < p.reps; i++ {
		r, err := runRep(rc)
		if err != nil {
			return nil, fmt.Errorf("%s repetition %d: %w", wl.name, i+1, err)
		}
		s.absorb(r, fmt.Sprintf("rep %d", i+1), false)
		reps = append(reps, r)
		e := r.e2e()
		perRep["setup_s"] = append(perRep["setup_s"], e["setup_s"])
		perRep["failed_share"] = append(perRep["failed_share"], e["failed_share"])
		for name, v := range r.layer {
			if strings.HasPrefix(name, "go.") {
				perRep[name] = append(perRep[name], v)
			}
		}
		fmt.Fprintf(out, "  rep %d/%d: setup %.3f s, %d slices: %.0f ops/s, update p50 %.1f p99 %.1f us, read p50 %.1f p99 %.1f us, failed %d/%d\n",
			i+1, p.reps, e["setup_s"], len(r.slices), e["ops_per_s"], e["update_p50_us"], e["update_p99_us"], e["read_p50_us"], e["read_p99_us"], r.failed, r.attempted)
	}
	// Set-up is short and noisy next to a window: more set-ups, torn down
	// unmeasured, steady its median. srv-volatile's takes 8 ms, and seven of
	// those still spread by a quarter; a second buys several dozen.
	rc.setupOnly = true
	for extra := time.Now(); len(perRep["setup_s"]) < p.setups || (p.setups > 0 && time.Since(extra) < setupBudget); {
		r, err := runRep(rc)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", wl.name, err)
		}
		perRep["setup_s"] = append(perRep["setup_s"], r.setupS)
	}
	rc.setupOnly = false
	for name, vs := range perRep {
		if strings.HasPrefix(name, "go.") {
			s.layer[name] = median(vs)
			continue
		}
		lo, hi := minMax(vs)
		s.e2e[name] = [3]float64{median(vs), lo, hi}
	}
	// Every other end-to-end metric is the quiet quartile of its values in the
	// slices of all the repetitions together.
	for _, d := range endToEnd {
		if d.name == "setup_s" {
			continue
		}
		vs := sliceValues(d.name, reps...)
		lo, hi := minMax(vs)
		s.e2e[d.name] = [3]float64{d.quiet(vs), lo, hi}
	}
	for _, r := range reps {
		s.slices += len(r.slices)
		s.samples[0] += r.updates
		s.samples[1] += r.reads
	}
	if p.traceDur <= 0 {
		return s, nil
	}

	rc.dur, rc.traced = p.traceDur, true
	tr, err := runRep(rc)
	if err != nil {
		return nil, fmt.Errorf("%s traced repetition: %w", wl.name, err)
	}
	s.absorb(tr, "traced", false)
	s.traced = true
	for name, v := range tr.layer {
		if !strings.HasPrefix(name, "go.") {
			s.layer[name] = v
		}
	}
	s.layer["trace.overhead_share"] = 1 - tr.e2e()["ops_per_s"]/s.e2e["ops_per_s"][0]
	if p.spans != nil {
		n, err := writeSpans(p.spans, wl.name, wl.sampleEvery, tr.sinks)
		if err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		s.spans = n
	}

	rc.dur, rc.traced = p.controlDur, false
	if wl.kind == kindList {
		// Stats cannot count time-warp commits yet, so the aborts time-warp
		// avoided come from an A/B against the engine with time-warp off.
		rc.engine = "twm-notw"
		c, err := runRep(rc)
		if err != nil {
			return nil, fmt.Errorf("%s twm-notw control: %w", wl.name, err)
		}
		s.absorb(c, "twm-notw control", true)
		s.layer["core.aborts_avoided_share"] = c.abortShare - tr.abortShare
		rc.engine = ""
	}
	if wl.durable {
		if err := probeWAL(p.scratch, p.workers, p.controlDur, s.layer); err != nil {
			s.errs = append(s.errs, "wal probe: "+err.Error())
		}
	}
	if p.jvstmRef {
		if err := jvstmReference(p, s); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// jvstmReference is list-warp on the paper's baseline engine: the control for
// machine drift between two sets of runs. It moves only if the machine did.
func jvstmReference(p plan, s *summary) error {
	r, err := runRep(repConfig{wl: findWorkload("list-warp"), seed: p.seed, dur: p.controlDur, workers: p.workers, scratch: p.scratch, engine: "jvstm"})
	if err != nil {
		return fmt.Errorf("jvstm reference: %w", err)
	}
	s.absorb(r, "jvstm reference", true)
	s.layer["jvstm.ref_ops_per_s"] = r.e2e()["ops_per_s"]
	s.layer["jvstm.ref_abort_share"] = r.abortShare
	return nil
}

// print writes one workload's metrics, each by name with its unit.
func (s *summary) print(out io.Writer) {
	fmt.Fprintf(out, "  %-34s %14s %-6s %s\n", "end-to-end metric", fmt.Sprintf("of %d slices", s.slices), "unit", "[min .. max]   bound")
	for _, d := range endToEnd {
		v := s.e2e[d.name]
		extra := ""
		switch d.name {
		case "update_p50_us", "update_p99_us":
			extra = fmt.Sprintf("   n=%d a slice", s.samples[0]/max(s.slices, 1))
		case "read_p50_us", "read_p99_us":
			extra = fmt.Sprintf("   n=%d a slice", s.samples[1]/max(s.slices, 1))
		}
		fmt.Fprintf(out, "  %-34s %14.4f %-6s [%.4f .. %.4f]   %.0f %%%s\n", d.name, v[0], d.unit, v[1], v[2], 100*d.allowed(v[0]), extra)
	}
	fs := s.e2e["failed_share"]
	fmt.Fprintf(out, "  %-34s %14.6f %-6s [%.6f .. %.6f]   +%.3f absolute   (%d of %d)\n", "failed_share", fs[0], "share", fs[1], fs[2], failedShareBound, s.failed, s.attempted)
	if s.traced {
		fmt.Fprintf(out, "  per-layer metric (traced run times 1 transaction in %d, clock read %.0f ns taken out; %d spans written)\n", s.wl.sampleEvery, clockNS, s.spans)
		for _, d := range perLayer {
			if v, ok := s.layer[d.name]; ok && !math.IsNaN(v) {
				fmt.Fprintf(out, "  %-34s %14.4f %s\n", d.name, v, d.unit)
			} else {
				fmt.Fprintf(out, "  %-34s %14s %s\n", d.name, "n/a", d.unit)
			}
		}
	}
	for _, n := range s.notes {
		fmt.Fprintf(out, "  note: %s\n", n)
	}
	for _, e := range s.errs {
		fmt.Fprintf(out, "  CHECK FAILED: %s\n", e)
	}
}

// agree prints, for every end-to-end metric of every workload, the two sets'
// values beside their relative difference and the bound, and reports whether
// all of them are within bounds.
func agree(a, b []*summary, setNo int, out io.Writer) bool {
	ok := true
	fmt.Fprintf(out, "== set 1 against set %d (jvstm.ref_ops_per_s %.1f against %.1f)\n", setNo, a[0].layer["jvstm.ref_ops_per_s"], b[0].layer["jvstm.ref_ops_per_s"])
	for i := range a {
		for _, d := range endToEnd {
			x, y := a[i].e2e[d.name][0], b[i].e2e[d.name][0]
			// Two runs of the same code have no better side: the difference
			// counts in whichever direction is worse.
			diff := math.Max(d.worsening(x, y), d.worsening(y, x))
			verdict := "ok"
			if diff > d.allowed(math.Min(x, y)) || math.IsNaN(diff) {
				verdict, ok = "DISAGREE", false
			}
			fmt.Fprintf(out, "  %-13s %-14s %14.4f %14.4f %-4s diff %5.1f %%  bound %4.0f %%  %s\n", a[i].wl.name, d.name, x, y, d.unit, 100*diff, 100*d.allowed(math.Min(x, y)), verdict)
		}
		x, y := a[i].e2e["failed_share"][0], b[i].e2e["failed_share"][0]
		verdict := "ok"
		if math.Abs(x-y) > failedShareBound {
			verdict, ok = "DISAGREE", false
		}
		fmt.Fprintf(out, "  %-13s %-14s %14.6f %14.6f %-4s diff %+.6f  bound %.3f  %s\n", a[i].wl.name, "failed_share", x, y, "share", y-x, failedShareBound, verdict)
	}
	return ok
}

// metricValue is one reported number in the driver's result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the driver's result line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// driverResult reports every end-to-end metric (trace 0) or every per-layer
// metric the driver is told about (trace 1). The contract wants a number for
// each on every run, so a per-layer metric that does not apply to the workload
// (README, "Per-layer metrics": which apply where is fixed per workload) reads
// 0, as does a mean over no events (core.abort_ns in a window without aborts).
func driverResult(s *summary, trace int) result {
	r := result{Correct: len(s.errs) == 0, Attempted: s.attempted, Failed: s.failed, Metrics: make(map[string]metricValue)}
	for _, d := range driverMetrics(s.wl, trace) {
		v := s.layer[d.name]
		if trace == 0 {
			v = s.e2e[d.name][0]
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		r.Metrics[d.name] = metricValue{v, d.unit}
	}
	return r
}
