package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/ds/sortedlist"
	"repro/internal/engines"
	"repro/internal/stm"
)

// take returns the next n operations of the stream.
func (s *opStream) take(n int) []op {
	out := make([]op, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

// Same seed, same schedules, byte for byte; another seed, other schedules.
func TestSchedulesFollowSeed(t *testing.T) {
	render := func(seed int64) map[string]string {
		out := make(map[string]string)
		for _, wl := range workloads {
			for w := 0; w < 2; w++ {
				out[fmt.Sprintf("%s/ops/%d", wl.name, w)] = fmt.Sprint(newOpStream(wl, seed, w).take(500))
			}
			if wl.keys > 0 {
				out[wl.name+"/populate"] = fmt.Sprint(populateKeys(wl, seed))
			}
			if wl.openRate > 0 {
				out[wl.name+"/arrivals"] = fmt.Sprint(poissonSchedule(wl, seed, 2*time.Second))
			}
		}
		return out
	}
	a, b, c := render(7), render(7), render(8)
	for name := range a {
		if a[name] != b[name] {
			t.Errorf("%s: seed 7 gave two different schedules", name)
		}
		if a[name] == c[name] {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", name)
		}
	}
	// Workers of one run must not replay each other's stream.
	if a["list-warp/ops/0"] == a["list-warp/ops/1"] {
		t.Error("workers 0 and 1 drew the same operations")
	}
}

func TestWorkloadMixes(t *testing.T) {
	for _, wl := range workloads {
		ops := newOpStream(wl, 1, 0).take(20000)
		reads := 0
		for _, o := range ops {
			if o.kind.isRead() {
				reads++
			}
			if o.kind == opTransfer && (o.a == o.b || o.a < 0 || o.b < 0 || o.a >= int64(wl.accounts) || o.b >= int64(wl.accounts)) {
				t.Fatalf("%s: bad transfer %+v", wl.name, o)
			}
			if wl.keys > 0 && (o.a < 0 || o.a >= wl.keyRange) {
				t.Fatalf("%s: key %d outside [0,%d)", wl.name, o.a, wl.keyRange)
			}
		}
		if got := float64(reads) / float64(len(ops)); math.Abs(got-wl.readShare) > 0.02 {
			t.Errorf("%s: read share %.3f, want %.2f", wl.name, got, wl.readShare)
		}
	}
	wl := findWorkload("srv-durable")
	sched := poissonSchedule(wl, 1, 10*time.Second)
	if got, want := float64(len(sched)), wl.openRate*10; math.Abs(got-want) > 0.1*want {
		t.Errorf("poisson schedule has %v arrivals in 10 s, want about %v", got, want)
	}
	if !sort.SliceIsSorted(sched, func(i, j int) bool { return sched[i].due < sched[j].due }) {
		t.Error("arrivals out of order")
	}
}

func TestQuantileAndMedian(t *testing.T) {
	xs := []int64{10, 20, 30, 40, 50}
	for _, c := range []struct{ q, want float64 }{{0, 10}, {0.5, 30}, {1, 50}, {0.25, 20}, {0.9, 46}, {0.125, 15}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if got := quantile([]int64{7}, 0.99); got != 7 {
		t.Errorf("quantile of one sample = %v, want 7", got)
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("quantile of nothing = %v, want NaN", got)
	}
	nan := math.NaN()
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},       // the median of three repetitions drops one outlier either way
		{[]float64{1, 100, 2}, 2},     //
		{[]float64{4, 1, 3, 2}, 2.5},  //
		{[]float64{5}, 5},             //
		{[]float64{nan, 9, 1, 5}, 5},  // a repetition without samples does not count
		{[]float64{2, 1, 9, 7, 3}, 3}, //
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if got := median([]float64{nan}); !math.IsNaN(got) {
		t.Errorf("median of nothing = %v, want NaN", got)
	}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.125, 1.5}} {
		if got := quantileOf([]float64{5, nan, 1, 4, 2, 3}, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantileOf(1..5 and a NaN, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if lo, hi := minMax([]float64{3, nan, -1, 8}); lo != -1 || hi != 8 {
		t.Errorf("minMax = %v, %v, want -1, 8", lo, hi)
	}
	lower := metricDef{name: "x_us", better: "lower", bound: 0.1}
	higher := metricDef{name: "x_per_s", better: "higher", bound: 0.1}
	if got := lower.worsening(100, 112); math.Abs(got-0.12) > 1e-9 {
		t.Errorf("lower-is-better 100→112 worsened by %v, want 0.12", got)
	}
	if got := higher.worsening(100, 88); math.Abs(got-0.12) > 1e-9 {
		t.Errorf("higher-is-better 100→88 worsened by %v, want 0.12", got)
	}
	// The quiet quartile is the one on the metric's better side.
	if got := lower.quiet([]float64{50, 10, 40, 20, 30}); got != 20 {
		t.Errorf("quiet quartile of a latency = %v, want 20", got)
	}
	if got := higher.quiet([]float64{50, 10, 40, 20, 30}); got != 40 {
		t.Errorf("quiet quartile of a rate = %v, want 40", got)
	}
	setup := endToEnd[0]
	if got := setup.allowed(0.02); got != 5 { // 0.1 s over 0.02 s
		t.Errorf("setup_s bound at 20 ms = %v, want 5 (the 0.1 s floor)", got)
	}
	if got := setup.allowed(2); got != 0.25 {
		t.Errorf("setup_s bound at 2 s = %v, want 0.25", got)
	}
}

// Two workers' samples are merged slice by slice; an operation belongs to the
// slice it completed in, and what follows the last complete slice is dropped.
func TestTallySlices(t *testing.T) {
	rc := repConfig{wl: &workload{slice: time.Second}, dur: 2 * time.Second}
	res := newRepResult(rc)
	start := time.Unix(100, 0)
	at := func(ms int) time.Time { return start.Add(time.Duration(ms) * time.Millisecond) }
	a, b := newSamples(rc, res), newSamples(rc, res)
	a.open(start)
	b.open(start)
	for _, c := range []struct {
		w    *samples
		ms   int
		read bool
		ns   int64
	}{
		{&a, 100, false, 1000}, {&a, 900, true, 10_000}, {&a, 1000, false, 7000}, {&a, 1900, false, 9000}, {&a, 2100, true, 99_000},
		{&b, 500, false, 3000}, {&b, 1500, true, 30_000}, {&b, 1999, true, 50_000},
	} {
		c.w.tick(at(c.ms))
		c.w.record(c.read, c.ns)
	}
	res.tally([]*samples{&a, &b})
	// b never crossed the 2 s mark, so only the first slice is complete.
	if len(res.slices) != 1 {
		t.Fatalf("%d complete slices, want 1", len(res.slices))
	}
	b.tick(at(2000))
	res = newRepResult(rc)
	res.tally([]*samples{&a, &b})
	want := []map[string]float64{
		{"ops_per_s": 3, "update_p50_us": 2, "update_p99_us": 2.98, "read_p50_us": 10, "read_p99_us": 10},
		{"ops_per_s": 4, "update_p50_us": 8, "update_p99_us": 8.98, "read_p50_us": 40, "read_p99_us": 49.8},
	}
	if len(res.slices) != len(want) {
		t.Fatalf("%d complete slices, want %d", len(res.slices), len(want))
	}
	for i, w := range want {
		for name, v := range w {
			if got := res.slices[i][name]; math.Abs(got-v) > 1e-9 {
				t.Errorf("slice %d: %s = %v, want %v", i, name, got, v)
			}
		}
	}
	if res.updates != 4 || res.reads != 4 || res.attempted != 8 {
		t.Errorf("tallied %d updates, %d reads, %d attempted; want 4, 4, 8", res.updates, res.reads, res.attempted)
	}
	if got := res.e2e()["ops_per_s"]; got != 3.75 {
		t.Errorf("quiet quartile of ops_per_s over slices 3 and 4 = %v, want 3.75", got)
	}
}

// fakeTM records what reaches the engine under the timing wrapper.
type fakeTM struct {
	stats     stm.Stats
	recycled  []stm.Tx
	committed []stm.Tx
	aborted   []stm.Tx
}

type fakeTx struct {
	reason stm.AbortReason
	reads  int
	writes int
}

func (f *fakeTM) Name() string             { return "fake" }
func (f *fakeTM) NewVar(stm.Value) stm.Var { return new(int) }
func (f *fakeTM) Begin(bool) stm.Tx        { return &fakeTx{reason: stm.ReasonTriad} }
func (f *fakeTM) Commit(tx stm.Tx) bool    { f.committed = append(f.committed, tx); return false }
func (f *fakeTM) Abort(tx stm.Tx)          { f.aborted = append(f.aborted, tx) }
func (f *fakeTM) Stats() *stm.Stats        { return &f.stats }
func (f *fakeTM) Recycle(tx stm.Tx)        { f.recycled = append(f.recycled, tx) }

func (x *fakeTx) Read(stm.Var) stm.Value           { x.reads++; return 1 }
func (x *fakeTx) Write(stm.Var, stm.Value)         { x.writes++ }
func (x *fakeTx) ReadOnly() bool                   { return false }
func (x *fakeTx) LastAbortReason() stm.AbortReason { return x.reason }

func TestTimedTMForwards(t *testing.T) {
	for _, every := range []int{1, 1000} { // timed and untimed paths
		inner := &fakeTM{}
		sk := newSink(100)
		tm := newTimedTM(inner, every, sk)
		v := tm.NewVar(0)
		tx := tm.Begin(false)
		tx.Read(v)
		tx.Write(v, 2)
		ar, ok := tx.(stm.AbortReasoner)
		if !ok || ar.LastAbortReason() != stm.ReasonTriad {
			t.Fatalf("every=%d: LastAbortReason not forwarded", every)
		}
		if tm.Commit(tx) {
			t.Errorf("every=%d: Commit result not forwarded", every)
		}
		var rec stm.TxRecycler = tm
		rec.Recycle(tx)
		if len(inner.committed) != 1 || len(inner.recycled) != 1 || inner.committed[0] != inner.recycled[0] {
			t.Fatalf("every=%d: engine saw commits %v, recycles %v; want the same one transaction in both", every, inner.committed, inner.recycled)
		}
		if x := inner.recycled[0].(*fakeTx); x.reads != 1 || x.writes != 1 {
			t.Errorf("every=%d: engine saw %d reads, %d writes, want 1 and 1", every, x.reads, x.writes)
		}
		tx = tm.Begin(false)
		tm.Abort(tx)
		rec.Recycle(tx)
		if len(inner.aborted) != 1 || len(inner.recycled) != 2 {
			t.Errorf("every=%d: Abort or its Recycle not forwarded", every)
		}
		if c := sk.core; c.attempts != 2 || c.reads != 1 || c.writes != 1 {
			t.Errorf("every=%d: wrapper counted %d attempts, %d reads, %d writes, want 2, 1, 1", every, c.attempts, c.reads, c.writes)
		}
		wantSpans := 0
		if every == 1 {
			wantSpans = 8 // begin, read, write, commit, attempt; begin, abort, attempt
		}
		if len(sk.spans) != wantSpans {
			t.Errorf("every=%d: %d spans, want %d", every, len(sk.spans), wantSpans)
		}
	}
}

// The wrapper (direct and through a worker's view) leaves the engine's results
// alone: the same operations give the same set.
func TestTimedTMCommitsSameResults(t *testing.T) {
	wl := findWorkload("list-warp")
	ops := newOpStream(wl, 3, 0).take(3000)
	keysAfter := func(wrap func(stm.TM) stm.TM) []int64 {
		engine := engines.MustNew("twm")
		tm := wrap(engine)
		set := sortedlist.New(tm)
		for _, o := range ops {
			if _, err := apply(tm, set, o); err != nil {
				t.Fatal(err)
			}
		}
		var keys []int64
		if err := stm.Atomically(engine, true, func(tx stm.Tx) error {
			keys = set.Keys(tx) //twm:allow txpurity a read-only transaction's single attempt
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return keys
	}
	bare := keysAfter(func(tm stm.TM) stm.TM { return tm })
	direct := keysAfter(func(tm stm.TM) stm.TM { return newTimedTM(tm, 3, newSink(1000)) })
	viewed := keysAfter(func(tm stm.TM) stm.TM {
		v := newTimedTM(tm, 3, newSink(0)).view(newSink(1000))
		v.op = opTrace{id: 1, sampled: true, spans: true}
		return v
	})
	if len(bare) == 0 || !reflect.DeepEqual(bare, direct) || !reflect.DeepEqual(bare, viewed) {
		t.Errorf("final sets differ: bare %d keys, wrapped %d, through a view %d", len(bare), len(direct), len(viewed))
	}
}

// benchmarkJSON is the part of BENCHMARK.json the tests read.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []jsonMetric `json:"end_to_end"`
	PerLayer  []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name, Unit, Better string
	Bound              float64 // end-to-end only
}

func metricNames(ms []jsonMetric) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	return out
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := readBenchmarkJSON(t)
	var listed []*workload
	for _, wl := range workloads {
		if !wl.byHandOnly {
			listed = append(listed, wl)
		}
	}
	if len(b.Workloads) != len(listed) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d for the driver", len(b.Workloads), len(listed))
	}
	for i, w := range b.Workloads {
		if w.Name != listed[i].name || w.Why != listed[i].why {
			t.Errorf("workload %d: %q (%q) in BENCHMARK.json, %q (%q) in the benchmark", i, w.Name, w.Why, listed[i].name, listed[i].why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end %d: %+v in BENCHMARK.json, %+v in the benchmark", i, m, d)
		}
	}
	listedLayer := driverMetrics(listed[0], 1)
	if len(b.PerLayer) != len(listedLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d for the driver", len(b.PerLayer), len(listedLayer))
	}
	for i, m := range b.PerLayer {
		d := listedLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: %+v in BENCHMARK.json, %+v in the benchmark", i, m, d)
		}
	}
}

// A 200 ms smoke of every workload, untraced and traced: the correctness
// checks pass, nothing fails, the result lines carry exactly BENCHMARK.json's
// metric names, and no goroutine or scratch file outlives a repetition.
func TestSmokeEveryWorkload(t *testing.T) {
	b := readBenchmarkJSON(t)
	scratch := t.TempDir()
	runtime.GOMAXPROCS(workerCount())
	before := runtime.NumGoroutine()
	for _, wl := range workloads {
		p := plan{seed: 1, workers: workerCount(), scratch: scratch, reps: 2, dur: 200 * time.Millisecond}
		s, err := measure(wl, p, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		checkSmoke(t, wl, s, 0, metricNames(b.EndToEnd))
		for _, d := range endToEnd {
			if v := s.e2e[d.name][0]; !(v > 0) {
				t.Errorf("%s: %s = %v, want a positive number", wl.name, d.name, v)
			}
		}

		p.reps, p.traceDur, p.controlDur, p.jvstmRef, p.spans = 1, 200*time.Millisecond, 100*time.Millisecond, true, io.Discard
		s, err = measure(wl, p, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		want := metricNames(b.PerLayer)
		if wl.durable { // by hand only: it reports its own per-layer metrics on top
			for _, d := range perLayer {
				if d.durableOnly {
					want = append(want, d.name)
				}
			}
		}
		checkSmoke(t, wl, s, 1, want)
		if s.spans == 0 {
			t.Errorf("%s: traced run wrote no spans", wl.name)
		}
		for name := range s.layer {
			if !slices.Contains(want, name) {
				t.Errorf("%s: per-layer metric %q is in no table", wl.name, name)
			}
		}
	}
	left, err := os.ReadDir(scratch)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("scratch directory still holds %d entries, first %q", len(left), left[0].Name())
	}
	// Closed connections and stopped servers retire their goroutines shortly
	// after the call that stopped them returns.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines before, %d after:\n%s", before, after, buf[:runtime.Stack(buf, true)])
	}
}

func checkSmoke(t *testing.T, wl *workload, s *summary, trace int, want []string) {
	t.Helper()
	for _, e := range s.errs {
		t.Errorf("%s trace=%d: check failed: %s", wl.name, trace, e)
	}
	if s.failed != 0 || s.attempted == 0 {
		t.Errorf("%s trace=%d: %d of %d operations failed", wl.name, trace, s.failed, s.attempted)
	}
	r := driverResult(s, trace)
	var got []string
	for name, v := range r.Metrics {
		got = append(got, name)
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("%s trace=%d: %s = %v", wl.name, trace, name, v.Value)
		}
	}
	sort.Strings(got)
	want = append([]string(nil), want...)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s trace=%d: result line has metrics\n%v\nBENCHMARK.json lists\n%v", wl.name, trace, got, want)
	}
}
