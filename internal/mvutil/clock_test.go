package mvutil

import (
	"reflect"
	"sync"
	"testing"
)

func TestClockRaise(t *testing.T) {
	var c Clock
	c.Raise(10)
	if c.Load() != 10 {
		t.Fatalf("Raise(10): clock %d", c.Load())
	}
	// Raising below the current value is a no-op.
	c.Raise(5)
	if c.Load() != 10 {
		t.Fatalf("Raise(5) after 10: clock %d", c.Load())
	}
	if got := c.Add(3); got != 13 {
		t.Fatalf("Add(3) = %d, want 13", got)
	}
}

// TestClockSeedRace is the race-pinning test for recovery fast-forward:
// Raise (the CAS-max seed loop) racing plain Add must never lose an update —
// the clock ends at least at the seed value plus every fetch-add that landed
// after the seed won.
func TestClockSeedRace(t *testing.T) {
	var c Clock
	c.Raise(1)
	const adds = 2000
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < adds; i++ {
			c.Add(1)
		}
	}()
	go func() {
		defer wg.Done()
		for v := uint64(0); v < 3000; v++ {
			c.Raise(v)
		}
	}()
	wg.Wait()
	if got := c.Load(); got < 1+adds || got < 2999 {
		t.Fatalf("lost updates: clock = %d, want >= %d and >= 2999", got, 1+adds)
	}
}

// TestClockPadded pins the clock word alone on its 64-byte line inside the
// Chassis, whatever the Chassis's alignment: every other field ends at least
// 56 bytes before the word (the most an 8-byte-aligned word can sit into its
// line) and starts at least 64 bytes after the word's start.
func TestClockPadded(t *testing.T) {
	ct := reflect.TypeOf(Chassis{})
	clk, _ := ct.FieldByName("Clk")
	v, _ := clk.Type.FieldByName("v")
	word := clk.Offset + v.Offset
	for i := 0; i < ct.NumField(); i++ {
		f := ct.Field(i)
		if f.Name == "Clk" {
			continue
		}
		if end := f.Offset + f.Type.Size(); end > word-56 && f.Offset < word+64 {
			t.Errorf("Chassis.%s [%d,%d) may share the clock word's line (word at %d)", f.Name, f.Offset, end, word)
		}
	}
	for i := 0; i < clk.Type.NumField(); i++ {
		if f := clk.Type.Field(i); f.Name != "v" && f.Name != "_" {
			t.Errorf("Clock.%s shares the clock's padding", f.Name)
		}
	}
}

// BenchmarkClockContention measures the commit clock's fetch-add under
// parallel committers: the cost every update round pays once.
func BenchmarkClockContention(b *testing.B) {
	var c Clock
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Add(1)
		}
	})
}
