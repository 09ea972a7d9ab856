package engines_test

import (
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/engines"
	"repro/internal/histories"
	"repro/internal/jvstm"
	"repro/internal/mvutil"
	"repro/internal/stm"
)

// transcript replays h on a fresh engine and renders every outcome.
func transcript(tm stm.TM, h histories.History) []string {
	var out []string
	for _, o := range histories.Replay(tm, h) {
		out = append(out, o.String())
	}
	return out
}

// TestPaperHistoriesDifferential replays the paper's Fig. 1 / Fig. 2
// histories step by step on both multi-version engines, as built and with a
// collector pass after every commit, and requires identical transcripts —
// commit/abort verdicts, abort reasons, read values and (nat, tw) commit
// orders: a pass may free only what no live snapshot can read. TWM's
// transcripts are pinned, so the comparison cannot pass by every variant
// being wrong the same way.
func TestPaperHistoriesDifferential(t *testing.T) {
	twmWant := map[string][]string{
		"Fig. 1": {
			"T1 read A.next = D", "T1 commit: ok nat=0 tw=0",
			"T3 read A.next = D", "T3 read D.next = E",
			"T2 read A.next = D", "T2 commit: ok nat=2 tw=2",
			"T3 commit: ok nat=3 tw=2",
		},
		"Fig. 2(a)": {
			"B read y = 0", "B read z = 0",
			"A1 commit: ok nat=2 tw=2", "A2 commit: ok nat=3 tw=3",
			"B commit: ok nat=4 tw=2",
		},
		"Fig. 2(b)": {
			"B read y = 0", "A commit: ok nat=2 tw=2",
			"C read x = 0", "C read z = 0", "C commit: ok nat=0 tw=0",
			"B commit: aborted (triad)",
		},
		"Fig. 2(c)/(d)": {
			"B read y = 0", "A commit: ok nat=2 tw=2",
			"B commit: ok nat=3 tw=2",
			"RO read x = 7", "RO commit: ok nat=0 tw=0",
			"UP read x: early abort (timewarp-skip)",
		},
		"Fig. 2(d) at commit": {
			"B read y = 0", "A commit: ok nat=2 tw=2",
			"UP read x = 0",
			"B commit: ok nat=3 tw=2",
			"UP commit: aborted (timewarp-skip)",
		},
	}
	for _, h := range histories.Paper() {
		t.Run(h.Name, func(t *testing.T) {
			for _, fam := range []struct {
				base     string
				variants []func() stm.TM
			}{
				{"twm", []func() stm.TM{
					func() stm.TM { return core.New(core.Options{Options: mvutil.Options{GCEveryNCommits: 1}}) },
				}},
				{"jvstm", []func() stm.TM{
					func() stm.TM { return jvstm.New(jvstm.Options{GCEveryNCommits: 1}) },
				}},
			} {
				want := transcript(engines.MustNew(fam.base), h)
				if fam.base == "twm" && !reflect.DeepEqual(want, twmWant[h.Name]) {
					t.Errorf("twm:\n got %q\nwant %q", want, twmWant[h.Name])
				}
				for i, mk := range fam.variants {
					tm := mk()
					if got := transcript(tm, h); !reflect.DeepEqual(got, want) {
						t.Errorf("%s variant %d (%s) diverges from %s:\n got %q\nwant %q", fam.base, i, tm.Name(), fam.base, got, want)
					}
				}
			}
		})
	}
}

// TestReadOnlyElisionHistories replays the two read-only histories of the
// stamp-elision rule and pins what makes them differ: with an older update transaction in flight the
// read-only transaction stamps and the pivot aborts; without one it leaves
// the stamps alone, the pivot time-warps, and what it read is the state before
// both writers.
func TestReadOnlyElisionHistories(t *testing.T) {
	want := map[string][]string{
		"read-only after the pivot": {
			"B read y = 0", "A commit: ok nat=2 tw=2",
			"C read x = 0", "C read y = 1", "C commit: ok nat=0 tw=0",
			"B commit: aborted (triad)",
		},
		"read-only before the pivot": {
			"B read y = 0", "C read x = 0", "A commit: ok nat=2 tw=2",
			"C read y = 0",
			"B commit: ok nat=3 tw=2", "C commit: ok nat=0 tw=0",
		},
	}
	for _, h := range histories.ReadOnlyElision() {
		quiet := h.Name == "read-only before the pivot"
		tm := engines.MustNew("twm")
		var got []string
		for _, o := range histories.Replay(tm, h) {
			got = append(got, o.String())
			if o.Tx != "C" || o.Op != histories.OpRead {
				continue
			}
			if o.Stamped == quiet {
				t.Errorf("%s: C's read of %s stamped=%v", h.Name, o.Var, o.Stamped)
			}
		}
		if !reflect.DeepEqual(got, want[h.Name]) {
			t.Errorf("%s:\n got %q\nwant %q", h.Name, got, want[h.Name])
		}
		if sn := tm.Stats().Snapshot(); sn.ROCommits != 1 || (sn.QuietROCommits == 1) != quiet {
			t.Errorf("%s: %d read-only commits, %d quiet", h.Name, sn.ROCommits, sn.QuietROCommits)
		}
	}
}

// TestProfilerEveryEngine attaches the Fig. 4(c) profiler through the
// outermost Stats() of every engine, bare and under each wrapper: the
// profiler rides Stats, which every engine and wrapper forwards, so update
// transactions run through the wrapper must reach it.
func TestProfilerEveryEngine(t *testing.T) {
	wraps := []struct {
		name string
		wrap func(stm.TM) stm.TM
	}{
		{"bare", func(tm stm.TM) stm.TM { return tm }},
		{"yield", func(tm stm.TM) stm.TM { return bench.WithYield(tm, 2) }},
		{"chaos", func(tm stm.TM) stm.TM { return chaos.New(tm, chaos.Options{}) }},
	}
	for _, name := range engines.Names() {
		for _, w := range wraps {
			tm := w.wrap(engines.MustNew(name))
			var prof stm.Profiler
			tm.Stats().SetProfiler(&prof)
			x := tm.NewVar(0)
			for i := 0; i < 4; i++ {
				if err := stm.Atomically(tm, false, func(tx stm.Tx) error {
					tx.Write(x, tx.Read(x).(int)+1)
					return nil
				}); err != nil {
					t.Fatalf("%s/%s: %v", name, w.name, err)
				}
			}
			if b := prof.Snapshot(); b.Txs == 0 || b.ReadUS <= 0 {
				t.Errorf("%s/%s: profiler saw %+v after 4 update commits", name, w.name, b)
			}
		}
	}
}

// TestProfilerAttributionAgrees runs one conflict-free schedule — three
// update commits, one of them doomed before it locks, and a read-only one —
// through both multi-version engines. The pipeline stamps the Fig. 4(c)
// phases at its step boundaries, so both engines must count the same events: one AddTx per update commit that
// entered the pipeline (the doomed one included, the read-only one not) and
// time charged to the same set of phases.
func TestProfilerAttributionAgrees(t *testing.T) {
	type shape struct {
		txs                                int64
		read, readSet, writeSet, commitPhs bool
	}
	var first *shape
	for _, mk := range []func() stm.TM{
		func() stm.TM { return engines.MustNew("twm") },
		func() stm.TM { return engines.MustNew("jvstm") },
	} {
		tm := mk()
		var prof stm.Profiler
		tm.Stats().SetProfiler(&prof)
		x, y := tm.NewVar(0), tm.NewVar(0)

		// Doomed before locking on both engines: it read x and y, then a
		// writer that also reads x (so TWM sees a stamped target) replaced x.
		doomed := tm.Begin(false)
		doomed.Read(x)
		doomed.Read(y)
		doomed.Write(x, 1)
		doomed.Write(y, 1)
		w := tm.Begin(false)
		w.Read(x)
		w.Write(x, 2)
		if !tm.Commit(w) {
			t.Fatalf("%s: writer aborted", tm.Name())
		}
		if tm.Commit(doomed) {
			t.Fatalf("%s: doomed commit succeeded", tm.Name())
		}
		for i := 0; i < 2; i++ {
			u := tm.Begin(false)
			u.Write(y, u.Read(y).(int)+1)
			if !tm.Commit(u) {
				t.Fatalf("%s: conflict-free commit %d aborted", tm.Name(), i)
			}
		}
		ro := tm.Begin(true)
		ro.Read(x)
		tm.Commit(ro)

		b := prof.Snapshot()
		got := shape{b.Txs, b.ReadUS > 0, b.ReadSetValUS > 0, b.WriteSetValUS > 0, b.CommitUS > 0}
		if got.txs != 4 {
			t.Errorf("%s: profiler counted %d transactions, want 4 (writer, doomed, two updates)", tm.Name(), got.txs)
		}
		if first == nil {
			first = &got
		} else if got != *first {
			t.Errorf("%s: phase attribution %+v differs from twm's %+v", tm.Name(), got, *first)
		}
	}
}
