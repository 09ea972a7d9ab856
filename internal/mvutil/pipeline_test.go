package mvutil

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/stm"
)

// The pipeline is tested against a fake member: the round's stage order, its
// exactly-once resolution and its lock hygiene are properties of the shared
// code, independent of either engine's validation rule.

// fakeVar is a variable reduced to what the pipeline touches.
type fakeVar struct {
	lock Lock
	id   uint64
}

// events is the shared, ordered log the fake members and logger write to.
type events struct {
	mu  sync.Mutex
	log []string
}

func (e *events) add(format string, args ...any) {
	e.mu.Lock()
	e.log = append(e.log, fmt.Sprintf(format, args...))
	e.mu.Unlock()
}

// fakeMember implements Member with scripted verdicts, recording every call
// and whether it held its write locks at that point.
type fakeMember struct {
	Desc
	name      string
	ev        *events
	vars      []*fakeVar // ascending id
	verdict   stm.AbortReason
	installed int
}

func (f *fakeMember) holdsAll() bool {
	for _, v := range f.vars {
		if v.lock.Load() != &f.Desc {
			return false
		}
	}
	return true
}

func (f *fakeMember) Writes(dst []WriteRef) []WriteRef {
	f.ev.add("writes:%s", f.name)
	for _, v := range f.vars {
		dst = append(dst, WriteRef{Lock: &v.lock, LoggedWrite: stm.LoggedWrite{VarID: v.id, Value: f.name}})
	}
	return dst
}

func (f *fakeMember) Validate() stm.AbortReason {
	f.ev.add("validate:%s locked=%v", f.name, f.holdsAll())
	f.Serial = f.Draw
	return f.verdict
}

func (f *fakeMember) Install() {
	f.ev.add("install:%s locked=%v", f.name, f.holdsAll())
	f.installed++
}

// fakeLogger scripts the durability seam and records what it is handed.
type fakeLogger struct {
	ev        *events
	members   []*fakeMember // to observe lock state at Append/Durable
	appendErr error
	latched   error
}

func (l *fakeLogger) anyLocked() bool {
	for _, m := range l.members {
		for _, v := range m.vars {
			if v.lock.Load() != nil {
				return true
			}
		}
	}
	return false
}

func (l *fakeLogger) Append(recs []stm.CommitRecord) (stm.LSN, error) {
	serials := make([]uint64, len(recs))
	for i := range recs {
		serials[i] = recs[i].Serial
	}
	l.ev.add("append:%v locked=%v", serials, l.anyLocked())
	return 1, l.appendErr
}

func (l *fakeLogger) Durable(stm.LSN) error {
	l.ev.add("durable locked=%v", l.anyLocked())
	return nil
}

func (l *fakeLogger) Err() error { return l.latched }

// rig is one chassis plus the members a scenario runs through it.
type rig struct {
	c       Chassis
	ev      *events
	stats   stm.Stats
	prof    stm.Profiler
	logger  *fakeLogger
	members []*fakeMember
	nextID  uint64
}

func newRig(opts Options, withLogger bool) *rig {
	r := &rig{ev: &events{}}
	if withLogger {
		r.logger = &fakeLogger{ev: r.ev}
		opts.Logger = r.logger
	}
	opts.GCEveryNCommits = -1
	r.c.Init(opts, &r.stats, func(uint64) int { return 0 })
	r.stats.SetProfiler(&r.prof)
	return r
}

// member adds a member writing nvars fresh variables.
func (r *rig) member(name string, nvars int) *fakeMember {
	vars := make([]*fakeVar, nvars)
	for i := range vars {
		r.nextID++
		vars[i] = &fakeVar{id: r.nextID}
	}
	return r.memberOn(name, vars)
}

func (r *rig) memberOn(name string, vars []*fakeVar) *fakeMember {
	f := &fakeMember{name: name, ev: r.ev, vars: vars}
	r.c.InitDesc(&f.Desc, f)
	r.members = append(r.members, f)
	if r.logger != nil {
		r.logger.members = r.members
	}
	return f
}

// run commits ms as one drained batch (k>1: the leader's loop) or, for a
// single member on a serial chassis, through CommitUpdate.
func (r *rig) run(ms ...*fakeMember) {
	if r.c.combiner == nil {
		for _, m := range ms {
			r.c.CommitUpdate(&m.Desc)
		}
		return
	}
	reqs := make([]*CommitReq, len(ms))
	for i, m := range ms {
		m.req.Reset(&m.Desc)
		reqs[i] = &m.req
	}
	r.c.lead(reqs)
}

// check asserts the universal postconditions: every member resolved exactly
// once, no lock left held, no member left marked in-batch.
func (r *rig) check(t *testing.T) {
	t.Helper()
	for _, m := range r.members {
		if r.c.combiner != nil && !m.req.Done() {
			t.Errorf("%s: never resolved", m.name)
		}
		if m.held != 0 || m.inBatch {
			t.Errorf("%s: held=%d inBatch=%v after the round", m.name, m.held, m.inBatch)
		}
		for _, v := range m.vars {
			if o := v.lock.Load(); o != nil {
				t.Errorf("%s: var %d still locked", m.name, v.id)
			}
		}
	}
	snap := r.stats.Snapshot()
	if got, want := snap.Commits+snap.Aborts, uint64(len(r.members)); got != want {
		t.Errorf("commits+aborts = %d, want one resolution per member (%d)", got, want)
	}
	if got := r.prof.Snapshot().Txs; got != int64(len(r.members)) {
		t.Errorf("profiler counted %d transactions, want %d", got, len(r.members))
	}
}

func (r *rig) wantOutcome(t *testing.T, m *fakeMember, reason stm.AbortReason) {
	t.Helper()
	if ok := reason == stm.ReasonNone; m.req.OK != ok || m.LastAbortReason() != reason {
		t.Errorf("%s: ok=%v reason=%v, want ok=%v reason=%v", m.name, m.req.OK, m.LastAbortReason(), ok, reason)
	}
}

// modes runs a scenario as a serial round of one and as a leader round.
func modes(t *testing.T, f func(t *testing.T, opts Options, batched bool)) {
	t.Run("k=1", func(t *testing.T) { f(t, Options{}, false) })
	t.Run("k>1", func(t *testing.T) { f(t, Options{GroupCommit: true}, true) })
}

func TestPipelineStageOrder(t *testing.T) {
	modes(t, func(t *testing.T, opts Options, batched bool) {
		r := newRig(opts, true)
		a := r.member("a", 2)
		want := []string{
			"writes:a",
			"validate:a locked=true", "install:a locked=true",
			"append:[2] locked=true", "durable locked=false",
		}
		if batched {
			b, c := r.member("b", 1), r.member("c", 3)
			want = []string{
				"writes:a", "writes:b", "writes:c",
				"validate:a locked=true", "install:a locked=true",
				"validate:b locked=true", "install:b locked=true",
				"validate:c locked=true", "install:c locked=true",
				"append:[2 3 4] locked=true", "durable locked=false",
			}
			r.run(a, b, c)
		} else {
			r.run(a)
		}
		if !reflect.DeepEqual(r.ev.log, want) {
			t.Errorf("stage order:\n got %q\nwant %q", r.ev.log, want)
		}
		for _, m := range r.members {
			r.wantOutcome(t, m, stm.ReasonNone)
		}
		if got, want := r.c.Clock(), uint64(1+len(r.members)); got != want {
			t.Errorf("clock = %d, want one tick per member (%d)", got, want)
		}
		r.check(t)
	})
}

func TestPipelineLatchedLogger(t *testing.T) {
	modes(t, func(t *testing.T, opts Options, batched bool) {
		r := newRig(opts, true)
		r.logger.latched = errors.New("disk gone")
		ms := []*fakeMember{r.member("a", 1)}
		if batched {
			ms = append(ms, r.member("b", 1))
		}
		r.run(ms...)
		for _, m := range ms {
			r.wantOutcome(t, m, stm.ReasonDurability)
		}
		if len(r.ev.log) != 0 || r.c.Clock() != 1 {
			t.Errorf("latched logger: round still ran stages %q (clock %d)", r.ev.log, r.c.Clock())
		}
		r.check(t)
	})
}

func TestPipelineLockTimeout(t *testing.T) {
	modes(t, func(t *testing.T, opts Options, batched bool) {
		opts.LockSpinBudget = 4
		r := newRig(opts, false)
		a := r.member("a", 3)
		var squatter Desc
		a.vars[1].lock.owner.Store(&squatter) // a takes vars[0], then times out
		ms := []*fakeMember{a}
		if batched {
			ms = append(ms, r.member("b", 1))
		}
		r.run(ms...)
		r.wantOutcome(t, a, stm.ReasonLockTimeout)
		if a.installed != 0 || a.vars[0].lock.Load() != nil {
			t.Errorf("timed-out member installed %d / kept its partial locks", a.installed)
		}
		for _, m := range ms[1:] {
			r.wantOutcome(t, m, stm.ReasonNone)
		}
		a.vars[1].lock.owner.Store(nil)
		r.check(t)
	})
}

func TestPipelineValidateAbort(t *testing.T) {
	modes(t, func(t *testing.T, opts Options, batched bool) {
		r := newRig(opts, true)
		a := r.member("a", 2)
		a.verdict = stm.ReasonReadConflict
		ms := []*fakeMember{a}
		if batched {
			ms = append(ms, r.member("b", 1))
		}
		r.run(ms...)
		r.wantOutcome(t, a, stm.ReasonReadConflict)
		if a.installed != 0 {
			t.Errorf("aborted member installed")
		}
		appends := 0
		for _, e := range r.ev.log {
			if strings.HasPrefix(e, "append") {
				appends++
				if e != "append:[3] locked=true" {
					t.Errorf("batch record = %q, want only the survivor (draw 3)", e)
				}
			}
		}
		if want := len(ms) - 1; appends != want {
			t.Errorf("%d appends, want %d", appends, want)
		}
		r.check(t)
	})
}

func TestPipelineAppendError(t *testing.T) {
	modes(t, func(t *testing.T, opts Options, batched bool) {
		r := newRig(opts, true)
		shortWrite := errors.New("short write")
		r.logger.appendErr = shortWrite
		ms := []*fakeMember{r.member("a", 1)}
		if batched {
			ms = append(ms, r.member("b", 2))
		}
		r.run(ms...)
		// The round was installed before the append: it stands in memory,
		// unlogged, is never waited durable, is not acknowledged (its outcome
		// is unknown), and nothing is logged after it.
		for _, m := range ms {
			r.wantOutcome(t, m, stm.ReasonOutcomeUnknown)
			if !errors.Is(m.DurabilityErr(), shortWrite) {
				t.Errorf("%s: DurabilityErr = %v, want the append's error", m.name, m.DurabilityErr())
			}
			if m.installed != 1 {
				t.Errorf("%s: installed %d times", m.name, m.installed)
			}
		}
		for _, e := range r.ev.log {
			if e == "durable locked=false" {
				t.Errorf("failed append was waited durable")
			}
		}
		r.logger.appendErr = nil
		late := r.member("late", 1)
		r.run(late)
		r.wantOutcome(t, late, stm.ReasonDurability)
		if late.installed != 0 {
			t.Errorf("a round after a failed append installed")
		}
		r.check(t)
	})
}

// TestPipelineSpill: overlapping write sets never share a round.
func TestPipelineSpill(t *testing.T) {
	r := newRig(Options{GroupCommit: true}, false)
	a := r.member("a", 2)
	b := r.memberOn("b", a.vars[1:]) // overlaps a
	c := r.member("c", 1)
	r.run(a, b, c)
	for _, m := range r.members {
		r.wantOutcome(t, m, stm.ReasonNone)
	}
	if a.Draw != 2 || c.Draw != 3 || b.Draw != 4 {
		t.Errorf("draws a=%d c=%d b=%d, want 2 3 4 (b spilled to the second round)", a.Draw, c.Draw, b.Draw)
	}
	snap := r.stats.Snapshot()
	if snap.BatchSpills != 1 || snap.GroupBatches != 2 || snap.ClockAdvances != 2 {
		t.Errorf("spills=%d batches=%d advances=%d, want 1 2 2", snap.BatchSpills, snap.GroupBatches, snap.ClockAdvances)
	}
	r.check(t)
}

// TestPipelineConcurrentSerialRounds runs many rounds of one at once on a
// serial chassis: they share no scratch (run under -race), contend only on
// the variables' locks, and every member resolves with its locks released.
func TestPipelineConcurrentSerialRounds(t *testing.T) {
	const goroutines, rounds = 8, 200
	r := newRig(Options{}, false)
	shared := []*fakeVar{{id: 1}, {id: 2}, {id: 3}}
	var wg sync.WaitGroup
	var mu sync.Mutex
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			mu.Lock()
			m := r.memberOn(fmt.Sprintf("g%d", g), shared[g%2:g%2+2])
			mu.Unlock()
			for i := 0; i < rounds; i++ {
				m.Reset()
				r.c.CommitUpdate(&m.Desc)
			}
		}(g)
	}
	wg.Wait()
	snap := r.stats.Snapshot()
	if snap.Commits+snap.Aborts != goroutines*rounds {
		t.Errorf("commits+aborts = %d, want %d", snap.Commits+snap.Aborts, goroutines*rounds)
	}
	if got, want := r.c.Clock(), 1+snap.Commits; got != want {
		t.Errorf("clock = %d, want %d (one tick per drawn member; the fake never fails validation)", got, want)
	}
	for _, v := range shared {
		if v.lock.Load() != nil {
			t.Errorf("var %d left locked", v.id)
		}
	}
}
