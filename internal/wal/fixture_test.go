package wal_test

import (
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/stm"
	"repro/internal/wal"
)

// The logs under testdata/ were written by the encoder of the last build that
// could split the commit clock into shards: a single-clock log (snapshot plus
// segment), a clock-sharded engine's snapshot (the segments it covered
// pruned), and a segment holding one clock-sharded commit frame.

// TestRecoverRefusesShardedLog: a sharded snapshot is refused, not skipped as
// damaged — skipping it would recover the empty state its prune left behind
// without an error — and so is a sharded commit frame.
func TestRecoverRefusesShardedLog(t *testing.T) {
	for _, dir := range []string{"sharded-snapshot", "sharded-segment"} {
		t.Run(dir, func(t *testing.T) {
			rec, err := wal.Recover(filepath.Join("testdata", dir))
			if !errors.Is(err, wal.ErrShardedLog) {
				t.Fatalf("Recover = %+v, %v; want ErrShardedLog", rec, err)
			}
		})
	}
}

// TestRecoverSingleClockFixture: a single-clock log written before clock
// sharding was deleted recovers to the same state it did then — its bytes
// never carried a shard field.
func TestRecoverSingleClockFixture(t *testing.T) {
	rec, err := wal.Recover(filepath.Join("testdata", "unsharded"))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Serial != 6 || rec.SnapshotSerial != 3 || rec.Records != 3 || rec.Torn {
		t.Errorf("Serial=%d SnapshotSerial=%d Records=%d Torn=%v, want 6 3 3 false",
			rec.Serial, rec.SnapshotSerial, rec.Records, rec.Torn)
	}
	if want := [][]byte{[]byte("accounts:3")}; !reflect.DeepEqual(rec.Metas, want) {
		t.Errorf("Metas = %q, want %q", rec.Metas, want)
	}
	// Var 2's Serial-5 clash keeps the smaller Tie's value (105, not 999).
	want := map[uint64]stm.Value{1: int64(85), 2: int64(105), 3: int64(110)}
	if !reflect.DeepEqual(rec.Values, want) {
		t.Errorf("Values = %v, want %v", rec.Values, want)
	}
}
