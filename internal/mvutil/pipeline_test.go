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

// The pipeline is tested against a fake member: the commit's step order, its
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

// check asserts the universal postconditions: every member resolved exactly
// once and no lock left held.
func (r *rig) check(t *testing.T) {
	t.Helper()
	for _, m := range r.members {
		if m.held != 0 {
			t.Errorf("%s: held=%d after its commit", m.name, m.held)
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

// commit runs m through the pipeline and checks the outcome it reports.
func (r *rig) commit(t *testing.T, m *fakeMember, reason stm.AbortReason) {
	t.Helper()
	if ok := r.c.CommitUpdate(&m.Desc); ok != (reason == stm.ReasonNone) || m.LastAbortReason() != reason {
		t.Errorf("%s: ok=%v reason=%v, want ok=%v reason=%v", m.name, ok, m.LastAbortReason(), reason == stm.ReasonNone, reason)
	}
}

// The stage tests below each run one case, named k=1 as when rounds could
// carry k members: every round now commits exactly one.

func TestPipelineStageOrder(t *testing.T) {
	t.Run("k=1", func(t *testing.T) {
		r := newRig(Options{}, true)
		a := r.member("a", 2)
		r.commit(t, a, stm.ReasonNone)
		want := []string{
			"writes:a",
			"validate:a locked=true", "install:a locked=true",
			"append:[2] locked=true", "durable locked=false",
		}
		if !reflect.DeepEqual(r.ev.log, want) {
			t.Errorf("stage order:\n got %q\nwant %q", r.ev.log, want)
		}
		if got := r.c.Clock(); got != 2 {
			t.Errorf("clock = %d, want one tick (2)", got)
		}
		r.check(t)
	})
}

func TestPipelineLatchedLogger(t *testing.T) {
	t.Run("k=1", func(t *testing.T) {
		r := newRig(Options{}, true)
		disk := errors.New("disk gone")
		r.logger.latched = disk
		a := r.member("a", 1)
		r.commit(t, a, stm.ReasonDurability)
		if !errors.Is(a.DurabilityErr(), disk) {
			t.Errorf("DurabilityErr = %v, want the logger's latched error", a.DurabilityErr())
		}
		if len(r.ev.log) != 0 || r.c.Clock() != 1 {
			t.Errorf("latched logger: the commit still ran stages %q (clock %d)", r.ev.log, r.c.Clock())
		}
		r.check(t)
	})
}

func TestPipelineLockTimeout(t *testing.T) {
	t.Run("k=1", func(t *testing.T) {
		r := newRig(Options{LockSpinBudget: 4}, false)
		a := r.member("a", 3)
		var squatter Desc
		a.vars[1].lock.owner.Store(&squatter) // a takes vars[0], then times out
		r.commit(t, a, stm.ReasonLockTimeout)
		if a.installed != 0 || a.vars[0].lock.Load() != nil {
			t.Errorf("timed-out member installed %d / kept its partial locks", a.installed)
		}
		if r.c.Clock() != 1 {
			t.Errorf("a lock timeout drew a tick (clock %d)", r.c.Clock())
		}
		a.vars[1].lock.owner.Store(nil)
		r.check(t)
	})
}

func TestPipelineValidateAbort(t *testing.T) {
	t.Run("k=1", func(t *testing.T) {
		r := newRig(Options{}, true)
		a := r.member("a", 2)
		a.verdict = stm.ReasonReadConflict
		r.commit(t, a, stm.ReasonReadConflict)
		if a.installed != 0 {
			t.Errorf("aborted member installed")
		}
		for _, e := range r.ev.log {
			if strings.HasPrefix(e, "append") {
				t.Errorf("aborted commit was logged: %q", e)
			}
		}
		if r.c.Clock() != 2 {
			t.Errorf("clock = %d, want the wasted tick (2)", r.c.Clock())
		}
		r.check(t)
	})
}

func TestPipelineAppendError(t *testing.T) {
	t.Run("k=1", func(t *testing.T) {
		r := newRig(Options{}, true)
		shortWrite := errors.New("short write")
		r.logger.appendErr = shortWrite
		a := r.member("a", 1)
		r.commit(t, a, stm.ReasonOutcomeUnknown)
		// The commit was installed before the append: it stands in memory,
		// unlogged, is never waited durable, is not acknowledged (its outcome is
		// unknown), and nothing is logged after it.
		if !errors.Is(a.DurabilityErr(), shortWrite) {
			t.Errorf("DurabilityErr = %v, want the append's error", a.DurabilityErr())
		}
		if a.installed != 1 {
			t.Errorf("installed %d times", a.installed)
		}
		for _, e := range r.ev.log {
			if e == "durable locked=false" {
				t.Errorf("failed append was waited durable")
			}
		}
		r.logger.appendErr = nil
		late := r.member("late", 1)
		r.commit(t, late, stm.ReasonDurability)
		if late.installed != 0 {
			t.Errorf("a commit after a failed append installed")
		}
		if late.DurabilityErr() == nil {
			t.Errorf("refusal after a failed append carries no error")
		}
		r.check(t)
	})
}

// TestPipelineConcurrentSerialRounds runs many commits at once: they share no
// scratch (run under -race), contend only on the variables' locks, and every
// member resolves with its locks released.
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
