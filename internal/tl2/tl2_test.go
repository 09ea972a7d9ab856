package tl2_test

import (
	"testing"

	"repro/internal/dsg"
	"repro/internal/stm"
	"repro/internal/stm/stmtest"
	"repro/internal/tl2"
)

func factory() stm.TM { return tl2.New() }

func TestConformance(t *testing.T) {
	stmtest.Run(t, factory, stmtest.Options{})
}

func TestSerializabilityDSG(t *testing.T) {
	dsg.CheckRandom(t, factory(), dsg.RunOptions{})
}

func TestSerializabilityDSGHighContention(t *testing.T) {
	dsg.CheckRandom(t, factory(), dsg.RunOptions{Vars: 3, Goroutines: 8, TxPerG: 120, Seed: 42})
}

func TestClassicValidationAbortsStaleRead(t *testing.T) {
	tm := factory()
	x := tm.NewVar(0)
	y := tm.NewVar(0)

	t1 := tm.Begin(false)
	t1.Read(x)
	t1.Write(y, 1)

	t2 := tm.Begin(false)
	t2.Write(x, 1)
	if !tm.Commit(t2) {
		t.Fatalf("t2 commit failed")
	}
	// t1's read of x is stale; TL2's classic validation must abort it even
	// though the history is serializable (t1 before t2) — the spurious abort
	// TWM is designed to avoid.
	if tm.Commit(t1) {
		t.Fatalf("TL2 must abort on stale read (classic validation)")
	}
}

func TestReadAbortsOnNewerVersion(t *testing.T) {
	tm := factory()
	x := tm.NewVar(0)
	t1 := tm.Begin(false)

	t2 := tm.Begin(false)
	t2.Write(x, 1)
	if !tm.Commit(t2) {
		t.Fatalf("t2 commit failed")
	}

	defer func() {
		if recover() == nil {
			t.Fatalf("expected retry signal reading newer version")
		}
		tm.Abort(t1)
	}()
	t1.Read(x)
}
