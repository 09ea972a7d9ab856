package engines_test

import (
	"testing"

	"repro/internal/engines"
)

func TestRegistryComplete(t *testing.T) {
	names := engines.Names()
	want := map[string]bool{
		"twm": true, "twm-notw": true, "twm-opaque": true, "twm-gc": true,
		"jvstm": true, "jvstm-gc": true, "tl2": true, "norec": true, "avstm": true,
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
