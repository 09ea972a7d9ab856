// Package health is a liveness watchdog for the STM engines. The engines'
// own mechanisms (retry backoff, version GC, the admission gate) each defend
// one failure mode locally; the watchdog is the cross-cutting observer that
// notices when a mechanism is losing — a snapshot pinned so long that version
// GC cannot advance, an abort rate that starves commits (livelock), a commit
// clock that stops moving, a write-ahead log that fails or wedges — and says
// so, through JSON-able snapshots and raise/clear alert callbacks.
//
// Detection samples only monotone counters and atomics the engines already
// maintain (stm.Stats, mvutil.ActiveSet, the commit clock, the WAL
// counters), so the steady-state sampling path allocates nothing and perturbs
// nothing — the watchdog observes a struggling system without adding load to
// it. Conditions are raised only after RaiseAfter consecutive bad windows and
// cleared only after ClearAfter consecutive good ones, so one anomalous
// sample neither raises nor clears anything.
package health

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/mvutil"
	"repro/internal/stm"
)

// Condition is one failure mode the watchdog detects.
type Condition uint8

const (
	// CondLivelock: the abort rate is consuming the engine's throughput —
	// a window saw at least MinAborts aborts and not a single commit.
	CondLivelock Condition = iota
	// CondStuck: the oldest active snapshot lags the clock by at least
	// StuckClockLag ticks. Version GC cannot advance past that snapshot, so
	// a stuck (or leaked) transaction turns into unbounded version memory.
	CondStuck
	// CondClockStall: attempts are starting but nothing finishes — no
	// commits, no aborts and no commit-clock motion across a window with
	// starts. Distinct from livelock (which churns); a stall means
	// transactions are wedged mid-flight (e.g. spinning on a lock nobody
	// releases). The clock term matters under group commit: one batched
	// advance covers N commits that the leader records one member at a time,
	// so a window can land after the tick but before the member counters —
	// moving ticks prove the commit stage is alive even when the counters
	// have not caught up yet.
	CondClockStall
	// CondWALStall: the engine's write-ahead log is failing or wedged — the
	// writer has latched an error (every further commit aborts with
	// stm.ReasonDurability), or appended records are pending durability and
	// the synced watermark made no progress across the window (an fsync that
	// never returns; committers under the per-commit policy are blocked inside
	// Durable).
	CondWALStall
	numConditions
)

// String returns a short stable label for the condition.
func (c Condition) String() string {
	switch c {
	case CondLivelock:
		return "livelock"
	case CondStuck:
		return "stuck-snapshot"
	case CondClockStall:
		return "clock-stall"
	case CondWALStall:
		return "wal-stall"
	}
	return "unknown"
}

// WALProber exposes the write-ahead-log counters the watchdog samples.
// wal.Writer implements it; the indirection keeps this package free of a wal
// dependency so clockless or WAL-less engines cost nothing.
type WALProber interface {
	// WALCounters reports records appended, records durable (synced), records
	// appended but not yet durable, and the writer's latched error (nil while
	// healthy).
	WALCounters() (appended, synced uint64, pending int, err error)
}

// Target is one observed engine. Any field but Name and Stats may be nil /
// zero; conditions that need a missing capability are simply not evaluated
// for that target. Use TargetOf to derive a Target from an engine.
type Target struct {
	// Name labels the target in snapshots and alerts.
	Name string
	// Stats is the engine's transaction counters (required).
	Stats *stm.Stats
	// Clock samples the engine's logical commit clock; nil disables
	// CondStuck.
	Clock func() uint64
	// Active is the engine's in-flight transaction registry; nil disables
	// CondStuck.
	Active *mvutil.ActiveSet
	// WAL is the engine's commit-log writer; nil disables CondWALStall.
	WAL WALProber
}

// TargetOf derives a Target from an engine. A multi-version engine
// (mvutil.Of) also yields its clock, its active set and, when its commit
// logger is a WALProber, the log; any other stm.TM is watched on its counters.
func TargetOf(tm stm.TM) Target {
	t := Target{Name: tm.Name(), Stats: tm.Stats()}
	if c := mvutil.Of(tm); c != nil {
		t.Clock, t.Active = c.Clock, c.Active
		if p, ok := c.Opts.Logger.(WALProber); ok {
			t.WAL = p
		}
	}
	return t
}

// Alert is one raise or clear transition of a condition on a target.
type Alert struct {
	Target string    `json:"target"`
	Cond   Condition `json:"-"`
	// Condition is Cond's label (the JSON field; Cond itself is the typed
	// key callbacks switch on).
	Condition string `json:"condition"`
	// Raised is true when the condition entered the active state, false on
	// the all-clear.
	Raised bool `json:"raised"`
	// Detail is a human-readable one-liner with the triggering numbers.
	Detail string `json:"detail"`
}

// AlertFunc receives raise/clear transitions. Callbacks run on the sampling
// goroutine (or the Step caller), after the watchdog's own lock is released,
// so they may call back into the watchdog or the engines.
type AlertFunc func(Alert)

// Config tunes detection. The zero value selects every default.
type Config struct {
	// SampleEvery is the sampling period of Start (default 100ms).
	SampleEvery time.Duration
	// RaiseAfter is how many consecutive bad windows raise a condition
	// (default 3).
	RaiseAfter int
	// ClearAfter is how many consecutive good windows clear an active
	// condition (default 2).
	ClearAfter int
	// MinAborts is the abort count a window must reach before it can count
	// as a livelock window (default 64); below it a commitless window is
	// treated as idle, not livelocked.
	MinAborts uint64
	// MinStarts is the attempt count a window must reach before it can count
	// as a clock-stall window (default 1).
	MinStarts uint64
	// StuckClockLag is how far (in clock ticks) the oldest active snapshot
	// may lag the clock before CondStuck trips (default 4096).
	StuckClockLag uint64
	// OnAlert are the callbacks invoked on every raise/clear transition.
	OnAlert []AlertFunc
}

func (c *Config) fill() {
	if c.SampleEvery <= 0 {
		c.SampleEvery = 100 * time.Millisecond
	}
	if c.RaiseAfter <= 0 {
		c.RaiseAfter = 3
	}
	if c.ClearAfter <= 0 {
		c.ClearAfter = 2
	}
	if c.MinAborts == 0 {
		c.MinAborts = 64
	}
	if c.MinStarts == 0 {
		c.MinStarts = 1
	}
	if c.StuckClockLag == 0 {
		c.StuckClockLag = 4096
	}
}

// condState is the hysteresis state of one condition on one target.
type condState struct {
	bad, good int
	active    bool
}

// targetState is the per-target sampling state.
type targetState struct {
	starts, commits, aborts uint64 // counter values at the previous sample
	clock                   uint64 // commit-clock value at the previous sample
	// commitsPerTick is the last window's commits per clock tick — ≈1 on the
	// serial commit path, the mean batch size under group commit. Carried
	// across tickless windows (idle ticks say nothing new).
	commitsPerTick float64
	walSynced      uint64 // WAL synced watermark at the previous sample
	conds          [numConditions]condState
}

// Watchdog samples a set of targets and raises/clears condition alerts.
// Construct with New; drive with Start/Stop (background goroutine) or Step
// (deterministic tests). All methods are safe for concurrent use.
type Watchdog struct {
	cfg     Config
	targets []Target

	mu     sync.Mutex
	states []targetState
	// pending accumulates this step's transitions under mu and is drained
	// into callbacks after unlocking; the backing array is reused so a
	// transition-free step allocates nothing.
	pending []Alert

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
	started  bool
}

// New returns a watchdog over the given targets. Targets cannot be added
// later; construct a new watchdog instead.
func New(cfg Config, targets ...Target) *Watchdog {
	cfg.fill()
	w := &Watchdog{
		cfg:     cfg,
		targets: targets,
		states:  make([]targetState, len(targets)),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	// Prime the counter baselines so the first Step sees the first window's
	// deltas rather than process-lifetime totals.
	for i := range targets {
		st := &w.states[i]
		st.starts, st.commits, _, st.aborts = targets[i].Stats.Totals()
		if targets[i].Clock != nil {
			st.clock = targets[i].Clock()
		}
		if targets[i].WAL != nil {
			_, st.walSynced, _, _ = targets[i].WAL.WALCounters()
		}
	}
	return w
}

// Start launches the sampling goroutine. It may be called at most once; Stop
// terminates it and waits for it to exit (no goroutine leak).
func (w *Watchdog) Start() {
	w.mu.Lock()
	if w.started {
		w.mu.Unlock()
		panic("health: Watchdog started twice")
	}
	w.started = true
	w.mu.Unlock()
	go func() {
		defer close(w.done)
		tick := time.NewTicker(w.cfg.SampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-tick.C:
				w.Step()
			}
		}
	}()
}

// Stop terminates the sampling goroutine and waits for it. Safe to call more
// than once and without Start.
func (w *Watchdog) Stop() {
	w.stopOnce.Do(func() { close(w.stop) })
	w.mu.Lock()
	started := w.started
	w.mu.Unlock()
	if started {
		<-w.done
	}
}

// Step runs one sampling window over every target: read the counters, judge
// each condition, advance the hysteresis, fire callbacks for transitions.
// Exported so tests can drive detection deterministically; Start calls it on
// the sampling period. The transition-free path performs no allocation.
func (w *Watchdog) Step() {
	w.mu.Lock()
	w.pending = w.pending[:0]
	for i := range w.targets {
		t := &w.targets[i]
		st := &w.states[i]
		starts, commits, _, aborts := t.Stats.Totals()
		dStarts := starts - st.starts
		dCommits := commits - st.commits
		dAborts := aborts - st.aborts
		st.starts, st.commits, st.aborts = starts, commits, aborts

		var clock, dClock uint64
		if t.Clock != nil {
			clock = t.Clock()
			dClock = clock - st.clock
			st.clock = clock
			if dClock > 0 {
				st.commitsPerTick = float64(dCommits) / float64(dClock)
			}
		}

		w.judge(t, st, CondLivelock,
			dAborts >= w.cfg.MinAborts && dCommits == 0,
			"aborts", dAborts, "commits", dCommits)

		// A clockless target (no Clock capability) is judged on the counters
		// alone, as before; a clocked one must additionally show a motionless
		// clock, so a mid-install batched advance never reads as a stall.
		w.judge(t, st, CondClockStall,
			dStarts >= w.cfg.MinStarts && dCommits == 0 && dAborts == 0 &&
				(t.Clock == nil || dClock == 0),
			"starts", dStarts, "clock-ticks", dClock)

		if t.Clock != nil && t.Active != nil {
			min := t.Active.MinStart(clock)
			w.judge(t, st, CondStuck,
				clock-min >= w.cfg.StuckClockLag,
				"clock", clock, "oldest-snapshot", min)
		}

		if t.WAL != nil {
			// Bad: the writer latched an error, or records are waiting on
			// durability with a watermark that did not move all window.
			// pending == 0 is always good — an idle or interval-policy log.
			_, synced, pending, werr := t.WAL.WALCounters()
			stalled := werr != nil || (pending > 0 && synced == st.walSynced)
			st.walSynced = synced
			w.judge(t, st, CondWALStall,
				stalled,
				"pending", uint64(pending), "synced", synced)
		}
	}
	fire := w.pending
	cbs := w.cfg.OnAlert
	w.mu.Unlock()
	for _, a := range fire {
		for _, cb := range cbs {
			cb(a)
		}
	}
}

// judge advances one condition's hysteresis given this window's verdict and
// queues an Alert on a raise or clear transition. k1/v1/k2/v2 are the numbers
// behind the verdict, formatted lazily (only when a transition fires, so the
// steady state stays allocation-free).
func (w *Watchdog) judge(t *Target, st *targetState, c Condition, bad bool, k1 string, v1 uint64, k2 string, v2 uint64) {
	cs := &st.conds[c]
	if bad {
		cs.bad++
		cs.good = 0
		if !cs.active && cs.bad >= w.cfg.RaiseAfter {
			cs.active = true
			w.pending = append(w.pending, Alert{
				Target: t.Name, Cond: c, Condition: c.String(), Raised: true,
				Detail: fmt.Sprintf("%s after %d windows (%s=%d %s=%d)", c, cs.bad, k1, v1, k2, v2),
			})
		}
		return
	}
	cs.good++
	cs.bad = 0
	if cs.active && cs.good >= w.cfg.ClearAfter {
		cs.active = false
		w.pending = append(w.pending, Alert{
			Target: t.Name, Cond: c, Condition: c.String(), Raised: false,
			Detail: fmt.Sprintf("%s cleared after %d good windows (%s=%d %s=%d)", c, cs.good, k1, v1, k2, v2),
		})
	}
}

// Active reports whether the condition is currently raised on the named
// target.
func (w *Watchdog) Active(target string, c Condition) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i := range w.targets {
		if w.targets[i].Name == target {
			return w.states[i].conds[c].active
		}
	}
	return false
}

// TargetSnapshot is the JSON-able state of one target.
type TargetSnapshot struct {
	Name     string `json:"name"`
	Starts   uint64 `json:"starts"`
	Commits  uint64 `json:"commits"`
	Aborts   uint64 `json:"aborts"`
	Clock    uint64 `json:"clock,omitempty"`
	MinStart uint64 `json:"minStart,omitempty"`
	// CommitsPerTick is the last sampled window's commits per clock tick:
	// ≈1 on a serial commit path, the mean batch size under group commit.
	CommitsPerTick float64 `json:"commitsPerTick,omitempty"`
	// WALPending/WALSynced/WALErr mirror the WAL prober when one is attached:
	// records appended but not yet durable, the durable watermark, and the
	// writer's latched error.
	WALPending int      `json:"walPending,omitempty"`
	WALSynced  uint64   `json:"walSynced,omitempty"`
	WALErr     string   `json:"walErr,omitempty"`
	Active     []string `json:"activeConditions,omitempty"`
}

// Snapshot is the JSON-able state of the whole watchdog.
type Snapshot struct {
	Targets []TargetSnapshot `json:"targets"`
}

// Snapshot copies the current state for reporting. Unlike Step it allocates
// (it is the reporting path, not the sampling path).
func (w *Watchdog) Snapshot() Snapshot {
	w.mu.Lock()
	defer w.mu.Unlock()
	snap := Snapshot{Targets: make([]TargetSnapshot, 0, len(w.targets))}
	for i := range w.targets {
		t := &w.targets[i]
		ts := TargetSnapshot{Name: t.Name}
		ts.Starts, ts.Commits, _, ts.Aborts = t.Stats.Totals()
		if t.Clock != nil {
			ts.Clock = t.Clock()
			ts.CommitsPerTick = w.states[i].commitsPerTick
			if t.Active != nil {
				ts.MinStart = t.Active.MinStart(ts.Clock)
			}
		}
		if t.WAL != nil {
			var werr error
			_, ts.WALSynced, ts.WALPending, werr = t.WAL.WALCounters()
			if werr != nil {
				ts.WALErr = werr.Error()
			}
		}
		for c := Condition(0); c < numConditions; c++ {
			if w.states[i].conds[c].active {
				ts.Active = append(ts.Active, c.String())
			}
		}
		snap.Targets = append(snap.Targets, ts)
	}
	return snap
}
