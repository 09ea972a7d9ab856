package engines_test

import (
	"testing"

	"repro/internal/engines"
	"repro/internal/mvutil"
	"repro/internal/stm"
)

func TestRegistryComplete(t *testing.T) {
	names := engines.Names()
	want := map[string]bool{
		"twm": true, "twm-notw": true,
		"jvstm": true, "tl2": true, "norec": true, "avstm": true,
	}
	if len(names) != len(want) {
		t.Fatalf("registry = %v", names)
	}
	for _, n := range names {
		if !want[n] {
			t.Fatalf("unexpected engine %q", n)
		}
		tm := engines.MustNew(n)
		if tm.Name() != n {
			t.Errorf("engine %q reports Name %q", n, tm.Name())
		}
	}
}

func TestPaperSetMatchesFigures(t *testing.T) {
	ps := engines.PaperSet()
	if len(ps) != 5 || ps[len(ps)-1] != "twm" {
		t.Fatalf("paper set = %v", ps)
	}
	for _, n := range ps {
		if _, err := engines.New(n); err != nil {
			t.Fatal(err)
		}
	}
}

func TestUnknownEngine(t *testing.T) {
	if _, err := engines.New("nope"); err == nil {
		t.Fatalf("expected error")
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("MustNew must panic on unknown engine")
		}
	}()
	engines.MustNew("nope")
}

func TestFreshInstances(t *testing.T) {
	a, b := engines.MustNew("twm"), engines.MustNew("twm")
	x := a.NewVar(1)
	tx := a.Begin(false)
	tx.Write(x, 2)
	if !a.Commit(tx) {
		t.Fatalf("commit failed")
	}
	if b.Stats().Snapshot().Commits != 0 {
		t.Fatalf("factory returned shared instances")
	}
}

// TestRetainedVersionsBound pins the space bound the collector keeps
// (DESIGN.md §2): each variable keeps at most one version at or below the
// oldest active snapshot, plus every version installed since. A read-only
// transaction held open across n commits, each writing w distinct variables
// and each followed by a collection pass, leaves at most vars + n·w versions,
// still reads its snapshot and commits; once it ends, one pass leaves exactly
// one version per variable.
func TestRetainedVersionsBound(t *testing.T) {
	const vars, n, w = 8, 40, 3
	type collected interface {
		GC() int
		VersionCount(stm.Var) int
	}
	for _, name := range engines.Names() {
		tm := engines.MustNew(name)
		if mvutil.Of(tm) == nil {
			continue // single-version: no chains to bound
		}
		t.Run(name, func(t *testing.T) {
			gc, ok := tm.(collected)
			if !ok {
				t.Fatalf("%s exposes no GC/VersionCount", name)
			}
			vs := make([]stm.Var, vars)
			for i := range vs {
				vs[i] = tm.NewVar(-i)
			}
			retained := func() int {
				total := 0
				for _, v := range vs {
					total += gc.VersionCount(v)
				}
				return total
			}

			held := tm.Begin(true)
			for c := range n {
				tx := tm.Begin(false)
				for j := range w {
					tx.Write(vs[(c+j)%vars], c)
				}
				if !tm.Commit(tx) {
					t.Fatalf("commit %d aborted", c)
				}
				gc.GC()
				if got, bound := retained(), vars+(c+1)*w; got > bound {
					t.Fatalf("after %d commits: %d versions retained, bound %d", c+1, got, bound)
				}
			}
			for i, v := range vs {
				if got := held.Read(v); got != -i {
					t.Errorf("held reader read %v from var %d, want its snapshot value %d", got, i, -i)
				}
			}
			if !tm.Commit(held) {
				t.Fatal("held read-only transaction aborted")
			}
			gc.GC()
			if got := retained(); got != vars {
				t.Errorf("after the reader ended: %d versions retained, want %d", got, vars)
			}
		})
	}
}
