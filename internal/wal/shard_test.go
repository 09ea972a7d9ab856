package wal_test

import (
	"testing"

	"repro/internal/engines"
	"repro/internal/stm"
	"repro/internal/wal"
)

// Sharded-clock log format tests (DESIGN.md §17): commit records carrying
// shard vectors, the per-shard max-Serial recovery fold, and the per-shard
// snapshot coverage rule — serials from different clock domains are not
// mutually comparable, so coverage is decided shard by shard.

// appendShardT appends one commit record with a shard vector.
func appendShardT(t *testing.T, w *wal.Writer, serial uint64, shards []uint32, writes ...stm.LoggedWrite) {
	t.Helper()
	lsn, err := w.Append([]stm.CommitRecord{{Serial: serial, Tie: serial, Shards: shards, Writes: writes}})
	if err != nil {
		t.Fatalf("Append(serial=%d shards=%v): %v", serial, shards, err)
	}
	if err := w.Durable(lsn); err != nil {
		t.Fatalf("Durable(%d): %v", lsn, err)
	}
}

func TestShardedRecordRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w := openT(t, dir, wal.SyncPerCommit)
	// Two independent number lines with overlapping serial ranges, plus one
	// cross-shard record whose serial feeds both folds.
	appendShardT(t, w, 5, []uint32{0}, lw(1, int64(10)))
	appendShardT(t, w, 3, []uint32{1}, lw(2, int64(20)))
	appendShardT(t, w, 7, []uint32{0, 1}, lw(1, int64(11)), lw(2, int64(21)))
	appendShardT(t, w, 8, []uint32{1}, lw(2, int64(22)))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := wal.Recover(dir)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rec.Serial != 8 || rec.Records != 4 || rec.Torn {
		t.Fatalf("got serial=%d records=%d torn=%v, want 8/4/false", rec.Serial, rec.Records, rec.Torn)
	}
	if rec.ShardSerials[0] != 7 || rec.ShardSerials[1] != 8 {
		t.Fatalf("per-shard fold = %v, want {0:7 1:8}", rec.ShardSerials)
	}
	if got := rec.Value(1, nil); got != int64(11) {
		t.Fatalf("var 1 = %#v, want 11", got)
	}
	if got := rec.Value(2, nil); got != int64(22) {
		t.Fatalf("var 2 = %#v, want 22", got)
	}
}

// TestUnshardedRecordShardFold: records without a shard vector fold onto
// shard 0, so a ClockShards=1 engine's recovery sees the same numbers through
// either interface.
func TestUnshardedRecordShardFold(t *testing.T) {
	dir := t.TempDir()
	w := openT(t, dir, wal.SyncPerCommit)
	appendT(t, w, 4, 4, lw(1, int64(1)))
	appendT(t, w, 9, 9, lw(1, int64(2)))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := wal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.ShardSerials) != 1 || rec.ShardSerials[0] != 9 {
		t.Fatalf("unsharded fold = %v, want {0:9}", rec.ShardSerials)
	}
}

// TestShardedSnapshotCoverage checks the per-shard coverage rule: a record is
// value-covered only when its serial is at or below the snapshot's component
// for EVERY shard it touched. A record from a slow shard with a small serial
// must replay even when a fast shard's component is far past it.
func TestShardedSnapshotCoverage(t *testing.T) {
	dir := t.TempDir()
	if err := wal.WriteSnapshot(dir, 0, &wal.Snapshot{
		Serial:       10,
		Values:       map[uint64]wal.Value{1: int64(100), 2: int64(200), 3: int64(300)},
		ShardSerials: []uint64{10, 5},
	}); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}

	w := openT(t, dir, wal.SyncPerCommit)
	// Covered: shard 0 at serial 7 <= component 10. Stale duplicate — the
	// snapshot value must win.
	appendShardT(t, w, 7, []uint32{0}, lw(1, int64(-1)))
	// Not covered: shard 1 at serial 7 > component 5, despite 7 < Serial 10.
	appendShardT(t, w, 7, []uint32{1}, lw(2, int64(201)))
	// Not covered: touches shard 1 above its component — replays both writes.
	appendShardT(t, w, 11, []uint32{0, 1}, lw(3, int64(301)))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := wal.Recover(dir)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rec.SnapshotSerial != 10 {
		t.Fatalf("SnapshotSerial = %d, want 10", rec.SnapshotSerial)
	}
	if got := rec.Value(1, nil); got != int64(100) {
		t.Fatalf("covered record overrode snapshot: var 1 = %#v, want 100", got)
	}
	if got := rec.Value(2, nil); got != int64(201) {
		t.Fatalf("slow-shard record not replayed: var 2 = %#v, want 201", got)
	}
	if got := rec.Value(3, nil); got != int64(301) {
		t.Fatalf("cross-shard record not replayed: var 3 = %#v, want 301", got)
	}
	// Fold floors start at the snapshot vector and rise with replayed serials.
	if rec.ShardSerials[0] != 11 || rec.ShardSerials[1] != 11 {
		t.Fatalf("per-shard fold = %v, want {0:11 1:11}", rec.ShardSerials)
	}
	if rec.Serial != 11 {
		t.Fatalf("Serial = %d, want 11", rec.Serial)
	}
}

// TestShardedSnapshotRoundTrip: the trailing shard vector survives the
// snapshot file format, and an unsharded snapshot recovers with a scalar
// floor on shard 0.
func TestShardedSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if err := wal.WriteSnapshot(dir, 0, &wal.Snapshot{
		Serial:       42,
		Values:       map[uint64]wal.Value{1: "x"},
		ShardSerials: []uint64{42, 17, 8, 3},
	}); err != nil {
		t.Fatal(err)
	}
	rec, err := wal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{42, 17, 8, 3}
	for s, v := range want {
		if rec.ShardSerials[uint32(s)] != v {
			t.Fatalf("shard %d floor = %d, want %d (all: %v)", s, rec.ShardSerials[uint32(s)], v, rec.ShardSerials)
		}
	}

	dir2 := t.TempDir()
	if err := wal.WriteSnapshot(dir2, 0, &wal.Snapshot{
		Serial: 42,
		Values: map[uint64]wal.Value{1: "x"},
	}); err != nil {
		t.Fatal(err)
	}
	rec2, err := wal.Recover(dir2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec2.ShardSerials) != 1 || rec2.ShardSerials[0] != 42 {
		t.Fatalf("scalar snapshot floor = %v, want {0:42}", rec2.ShardSerials)
	}
}

// shardClocked is the capability a sharded engine exposes for recovery:
// sample the clock vector and fast-forward individual shard clocks.
type shardClocked interface {
	ClockVec(dst []uint64) []uint64
	SeedClockShard(s int, v uint64)
}

// TestDurableShardedEngine drives the sharded WAL-capable engines over a real
// log, restarts each with per-shard clock fast-forward, and checks both the
// recovered values and clock vector domination — the end-to-end recovery
// contract.
func TestDurableShardedEngine(t *testing.T) {
	for _, name := range []string{"twm", "twm-gc", "jvstm", "jvstm-gc"} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			w := openT(t, dir, wal.SyncPerCommit)

			tm, err := engines.New(name, engines.WithLogger(w), engines.WithClockShards(4, nil))
			if err != nil {
				t.Fatal(err)
			}
			vars := make([]stm.Var, 8)
			ids := make([]uint64, 8)
			for i := range vars {
				vars[i] = tm.NewVar(0)
				ids[i] = vars[i].(interface{ VarID() uint64 }).VarID()
			}
			// Single-shard commits on every shard plus a cross-shard commit
			// per round.
			for round := 1; round <= 3; round++ {
				for i, v := range vars {
					tx := tm.Begin(false)
					tx.Write(v, round*10+i)
					if !tm.Commit(tx) {
						t.Fatalf("commit failed")
					}
				}
				tx := tm.Begin(false)
				tx.Write(vars[0], round)
				tx.Write(vars[1], round)
				if !tm.Commit(tx) {
					t.Fatalf("cross commit failed")
				}
			}
			vec := tm.(shardClocked).ClockVec(nil)
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			rec, err := wal.Recover(dir)
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			w2 := openT(t, dir, wal.SyncPerCommit)
			defer w2.Close()
			tm2, err := engines.New(name, engines.WithLogger(w2), engines.WithClockShards(4, nil))
			if err != nil {
				t.Fatal(err)
			}
			for s, v := range rec.ShardSerials {
				tm2.(shardClocked).SeedClockShard(int(s), v)
			}
			vars2 := make([]stm.Var, 8)
			for i := range vars2 {
				vars2[i] = tm2.NewVar(rec.Value(ids[i], 0))
			}
			ro := tm2.Begin(true)
			for i, v := range vars2 {
				want := 30 + i
				if i < 2 {
					want = 3 // the final cross-shard commit wins on vars 0 and 1
				}
				if got := ro.Read(v); got != want {
					t.Fatalf("var %d = %v after restart, want %d", i, got, want)
				}
			}
			tm2.Commit(ro)
			vec2 := tm2.(shardClocked).ClockVec(nil)
			for s := range vec {
				if vec2[s] < vec[s] {
					t.Fatalf("shard %d clock went backwards across restart: %d < %d", s, vec2[s], vec[s])
				}
			}
		})
	}
}
