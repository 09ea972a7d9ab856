package wal_test

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stm"
	"repro/internal/wal"
)

// openT opens a writer over dir with the given policy, failing the test on
// error.
func openT(t *testing.T, dir string, policy wal.Policy) *wal.Writer {
	t.Helper()
	w, err := wal.Open(wal.Options{Dir: dir, Policy: policy})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return w
}

// appendT appends one commit record and waits out durability.
func appendT(t *testing.T, w *wal.Writer, serial, tie uint64, writes ...stm.LoggedWrite) {
	t.Helper()
	lsn, err := w.Append([]stm.CommitRecord{{Serial: serial, Tie: tie, Writes: writes}})
	if err != nil {
		t.Fatalf("Append(serial=%d): %v", serial, err)
	}
	if err := w.Durable(lsn); err != nil {
		t.Fatalf("Durable(%d): %v", lsn, err)
	}
}

func lw(id uint64, v stm.Value) stm.LoggedWrite { return stm.LoggedWrite{VarID: id, Value: v} }

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w := openT(t, dir, wal.SyncPerCommit)
	// Cover every supported value type plus an overwrite the fold must order.
	appendT(t, w, 1, 1, lw(1, int64(10)), lw(2, "hello"), lw(3, []byte{0xde, 0xad}))
	appendT(t, w, 2, 2, lw(4, true), lw(5, nil), lw(6, 3.5), lw(7, uint64(9)), lw(8, 42))
	appendT(t, w, 3, 3, lw(1, int64(20))) // overwrites var 1
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	rec, err := wal.Recover(dir)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rec.Serial != 3 || rec.Records != 3 || rec.Torn {
		t.Fatalf("got serial=%d records=%d torn=%v, want 3/3/false", rec.Serial, rec.Records, rec.Torn)
	}
	want := map[uint64]stm.Value{
		1: int64(20), 2: "hello", 3: []byte{0xde, 0xad},
		4: true, 5: nil, 6: 3.5, 7: uint64(9), 8: 42,
	}
	for id, v := range want {
		if got := rec.Value(id, "missing"); !reflect.DeepEqual(got, v) {
			t.Errorf("var %d: got %#v, want %#v", id, got, v)
		}
	}
	if got := rec.Value(99, int64(-1)); got != int64(-1) {
		t.Errorf("unknown var fallback: got %#v", got)
	}
}

// TestClashElisionFold checks the replay tie-break matches the in-memory rule:
// equal Serial means a time-warp clash was elided, and the smaller Tie
// (earlier natural order) is the readable version.
func TestClashElisionFold(t *testing.T) {
	dir := t.TempDir()
	w := openT(t, dir, wal.SyncPerCommit)
	appendT(t, w, 5, 7, lw(1, int64(100)))
	appendT(t, w, 5, 3, lw(1, int64(200))) // same serial, smaller tie: wins
	appendT(t, w, 4, 9, lw(1, int64(300))) // lower serial: loses
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := wal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Value(1, nil); got != int64(200) {
		t.Fatalf("fold winner: got %#v, want 200", got)
	}
}

func TestMetaRecovery(t *testing.T) {
	dir := t.TempDir()
	w := openT(t, dir, wal.SyncPerCommit)
	for _, p := range []string{"alpha", "beta"} {
		if err := w.AppendMeta([]byte(p)); err != nil {
			t.Fatalf("AppendMeta(%s): %v", p, err)
		}
	}
	appendT(t, w, 1, 1, lw(1, int64(5)))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := wal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Metas) != 2 || string(rec.Metas[0]) != "alpha" || string(rec.Metas[1]) != "beta" {
		t.Fatalf("metas: got %q", rec.Metas)
	}

	// Reopen with MetaStart: the recovered metas keep their sequence slots, so
	// new metas continue the numbering and recovery sees all three in order.
	w2, err := wal.Open(wal.Options{Dir: dir, MetaStart: uint64(len(rec.Metas))})
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.AppendMeta([]byte("gamma")); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	rec2, err := wal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec2.Metas) != 3 || string(rec2.Metas[2]) != "gamma" {
		t.Fatalf("metas after reopen: got %q", rec2.Metas)
	}
}

// TestRecoveryEdges is the table of degenerate directory shapes recovery must
// absorb: nothing at all, a snapshot with no log, a torn final record, a
// duplicated segment.
func TestRecoveryEdges(t *testing.T) {
	cases := []struct {
		name  string
		build func(t *testing.T, dir string)
		check func(t *testing.T, rec *wal.Recovered)
	}{
		{
			name:  "empty",
			build: func(t *testing.T, dir string) {},
			check: func(t *testing.T, rec *wal.Recovered) {
				if rec.Serial != 0 || rec.Records != 0 || len(rec.Metas) != 0 || len(rec.Values) != 0 || rec.Torn {
					t.Fatalf("empty dir: got %+v", rec)
				}
			},
		},
		{
			name: "snapshot-only",
			build: func(t *testing.T, dir string) {
				snap := &wal.Snapshot{
					Serial: 17,
					Metas:  [][]byte{[]byte("acct")},
					Values: map[uint64]wal.Value{1: int64(250), 2: int64(0)},
				}
				if err := wal.WriteSnapshot(dir, 3, snap); err != nil {
					t.Fatal(err)
				}
			},
			check: func(t *testing.T, rec *wal.Recovered) {
				if rec.SnapshotSerial != 17 || rec.Serial != 17 {
					t.Fatalf("serials: %+v", rec)
				}
				if got := rec.Value(1, nil); got != int64(250) {
					t.Fatalf("var 1: %#v", got)
				}
				if len(rec.Metas) != 1 || string(rec.Metas[0]) != "acct" {
					t.Fatalf("metas: %q", rec.Metas)
				}
			},
		},
		{
			name: "torn-last-record",
			build: func(t *testing.T, dir string) {
				w := openT(t, dir, wal.SyncPerCommit)
				appendT(t, w, 1, 1, lw(1, int64(11)))
				appendT(t, w, 2, 2, lw(2, int64(22)))
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
				// Shear a few bytes off the newest segment: the final record's
				// CRC no longer matches, which must read as a torn tail, not
				// corruption.
				seg := newestSegment(t, dir)
				info, err := os.Stat(seg)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.Truncate(seg, info.Size()-3); err != nil {
					t.Fatal(err)
				}
			},
			check: func(t *testing.T, rec *wal.Recovered) {
				if !rec.Torn {
					t.Fatal("want Torn=true")
				}
				if rec.Records != 1 || rec.Value(1, nil) != int64(11) {
					t.Fatalf("surviving prefix: records=%d values=%v", rec.Records, rec.Values)
				}
				if _, ok := rec.Values[2]; ok {
					t.Fatal("torn record must not be applied")
				}
			},
		},
		{
			name: "duplicate-segment",
			build: func(t *testing.T, dir string) {
				w := openT(t, dir, wal.SyncPerCommit)
				appendT(t, w, 1, 1, lw(1, int64(7)))
				appendT(t, w, 2, 2, lw(1, int64(8)))
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
				// Re-deliver the whole segment under a higher sequence; the
				// fold must absorb the duplicates without changing the result.
				seg := newestSegment(t, dir)
				raw, err := os.ReadFile(seg)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, "wal-00000009.seg"), raw, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			check: func(t *testing.T, rec *wal.Recovered) {
				if got := rec.Value(1, nil); got != int64(8) {
					t.Fatalf("fold result: %#v", got)
				}
				if rec.Serial != 2 || rec.Torn {
					t.Fatalf("got %+v", rec)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tc.build(t, dir)
			rec, err := wal.Recover(dir)
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			tc.check(t, rec)
		})
	}
}

// TestCorruptMiddleSegmentFails: tail damage is only forgivable in the newest
// segment; the same damage in an older (fully synced) one is real corruption.
func TestCorruptMiddleSegmentFails(t *testing.T) {
	dir := t.TempDir()
	w := openT(t, dir, wal.SyncPerCommit)
	appendT(t, w, 1, 1, lw(1, int64(1)))
	if _, err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	appendT(t, w, 2, 2, lw(2, int64(2)))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) < 2 {
		t.Fatalf("want 2+ segments, got %v (%v)", segs, err)
	}
	info, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segs[0], info.Size()-2); err != nil {
		t.Fatal(err)
	}
	if _, err := wal.Recover(dir); err == nil {
		t.Fatal("want error for damage in a non-final segment")
	}
}

// TestRotateSnapshotPrune drives the full checkpoint protocol at the wal
// level: records below the rotation fold into a snapshot, the old segments
// are pruned, and recovery stitches snapshot + retained suffix together.
func TestRotateSnapshotPrune(t *testing.T) {
	dir := t.TempDir()
	w := openT(t, dir, wal.SyncPerCommit)
	if err := w.AppendMeta([]byte("m0")); err != nil {
		t.Fatal(err)
	}
	appendT(t, w, 1, 1, lw(1, int64(100)))
	appendT(t, w, 2, 2, lw(2, int64(200)))

	seq, err := w.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	snap := &wal.Snapshot{
		Serial: 2,
		Metas:  [][]byte{[]byte("m0")},
		Values: map[uint64]wal.Value{1: int64(100), 2: int64(200)},
	}
	if err := wal.WriteSnapshot(dir, seq, snap); err != nil {
		t.Fatal(err)
	}
	appendT(t, w, 3, 3, lw(1, int64(111))) // post-rotation: must survive prune
	if err := w.Prune(seq); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) != 1 {
		t.Fatalf("prune left %v", segs)
	}
	rec, err := wal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.SnapshotSerial != 2 || rec.Serial != 3 {
		t.Fatalf("serials: %+v", rec)
	}
	if rec.Value(1, nil) != int64(111) || rec.Value(2, nil) != int64(200) {
		t.Fatalf("values: %v", rec.Values)
	}
	if len(rec.Metas) != 1 || string(rec.Metas[0]) != "m0" {
		t.Fatalf("metas: %q", rec.Metas)
	}
}

// TestPolicies exercises the interval syncer end to end: Durable returns at
// once without error and the records recover.
func TestPolicies(t *testing.T) {
	t.Run(wal.SyncInterval.String(), func(t *testing.T) {
		dir := t.TempDir()
		w := openT(t, dir, wal.SyncInterval)
		for i := uint64(1); i <= 20; i++ {
			appendT(t, w, i, i, lw(1, int64(i)))
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		rec, err := wal.Recover(dir)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Records != 20 || rec.Value(1, nil) != int64(20) {
			t.Fatalf("records=%d values=%v", rec.Records, rec.Values)
		}
	})
}

// TestParsePolicy: the two policies round-trip through their spellings, the
// empty string means per-commit, and the deleted per-batch spelling is an
// unknown policy, not an alias.
func TestParsePolicy(t *testing.T) {
	for _, p := range []wal.Policy{wal.SyncPerCommit, wal.SyncInterval} {
		if got, err := wal.ParsePolicy(p.String()); err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", p.String(), got, err, p)
		}
	}
	if got, err := wal.ParsePolicy(""); err != nil || got != wal.SyncPerCommit {
		t.Errorf(`ParsePolicy("") = %v, %v; want per-commit`, got, err)
	}
	if _, err := wal.ParsePolicy("per-batch"); err == nil {
		t.Error(`ParsePolicy("per-batch") accepted a deleted policy`)
	}
}

// countSyncs returns an AfterSync hook and the count of fsyncs it has seen.
func countSyncs() (func() error, *atomic.Int32) {
	n := new(atomic.Int32)
	return func() error { n.Add(1); return nil }, n
}

// durableTogether has k goroutines append one record each and, once all k
// have appended, call wait with their LSN together. It returns each call's
// error, failing the test if any call is still blocked after 10 s.
func durableTogether(t *testing.T, w *wal.Writer, k int, wait func(i int, lsn stm.LSN) error) []error {
	t.Helper()
	errs := make([]error, k)
	var appended, done sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < k; i++ {
		appended.Add(1)
		done.Add(1)
		go func(i int) {
			defer done.Done()
			lsn, err := w.Append([]stm.CommitRecord{{Serial: uint64(i + 1), Tie: uint64(i + 1), Writes: []stm.LoggedWrite{lw(uint64(i), int64(i))}}})
			appended.Done()
			if err != nil {
				errs[i] = err
				return
			}
			<-start
			errs[i] = wait(i, lsn)
		}(i)
	}
	appended.Wait()
	close(start)
	finished := make(chan struct{})
	go func() { done.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("a Durable or Sync caller is still blocked after 10s")
	}
	return errs
}

// TestDurableWaitersShareOneFsync: records appended before any waiter arrives
// are all covered by the first fsync, so k concurrent Durable calls cost
// exactly one — every other waiter joins it or finds the watermark past it —
// and Durable on a covered record later costs none.
func TestDurableWaitersShareOneFsync(t *testing.T) {
	const k = 16
	after, fsyncs := countSyncs()
	w, err := wal.Open(wal.Options{Dir: t.TempDir(), Hooks: wal.Hooks{AfterSync: after}})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i, err := range durableTogether(t, w, k, func(_ int, lsn stm.LSN) error { return w.Durable(lsn) }) {
		if err != nil {
			t.Errorf("Durable of waiter %d: %v", i, err)
		}
	}
	for lsn := stm.LSN(1); lsn <= k; lsn++ {
		if err := w.Durable(lsn); err != nil {
			t.Errorf("Durable(%d) after the fsync: %v", lsn, err)
		}
	}
	if n := fsyncs.Load(); n != 1 {
		t.Fatalf("%d waiters ran %d fsyncs, want 1", k, n)
	}
}

// TestDurableWaitersSeeSyncFailure: when the fsync fails, its leader latches
// the writer and every joined waiter — Durable or Sync — reports the failure;
// none is acknowledged and none is left blocked.
func TestDurableWaitersSeeSyncFailure(t *testing.T) {
	const k = 16
	boom := errors.New("injected fsync failure")
	w, err := wal.Open(wal.Options{Dir: t.TempDir(), Hooks: wal.Hooks{BeforeSync: func() error { return boom }}})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	errs := durableTogether(t, w, k, func(i int, lsn stm.LSN) error {
		if i%2 == 0 {
			return w.Durable(lsn)
		}
		return w.Sync()
	})
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Errorf("waiter %d: got %v, want the injected failure", i, err)
		}
	}
}

// TestSyncReportsLatchAndCloseSyncs: Sync on a latched writer returns the
// latched failure even with nothing pending, and Close on a healthy writer
// fsyncs the records appended without a Durable wait.
func TestSyncReportsLatchAndCloseSyncs(t *testing.T) {
	boom := errors.New("injected append failure")
	fail := false
	w, err := wal.Open(wal.Options{Dir: t.TempDir(), Hooks: wal.Hooks{BeforeAppend: func() error {
		if fail {
			return boom
		}
		return nil
	}}})
	if err != nil {
		t.Fatal(err)
	}
	appendT(t, w, 1, 1, lw(1, int64(1)))
	fail = true
	if _, err := w.Append([]stm.CommitRecord{{Serial: 2, Tie: 2}}); !errors.Is(err, boom) {
		t.Fatalf("Append: got %v, want the injected failure", err)
	}
	if _, _, pending, _ := w.WALCounters(); pending != 0 {
		t.Fatalf("%d records pending, want 0", pending)
	}
	if err := w.Sync(); !errors.Is(err, boom) {
		t.Fatalf("Sync on a latched writer: got %v, want the injected failure", err)
	}
	w.Close()

	dir := t.TempDir()
	after, fsyncs := countSyncs()
	w, err = wal.Open(wal.Options{Dir: dir, Hooks: wal.Hooks{AfterSync: after}})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 3; i++ {
		if _, err := w.Append([]stm.CommitRecord{{Serial: i, Tie: i, Writes: []stm.LoggedWrite{lw(1, int64(i))}}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, synced, _, _ := w.WALCounters(); synced != 3 || fsyncs.Load() != 1 {
		t.Fatalf("Close left synced=%d after %d fsyncs, want 3 after 1", synced, fsyncs.Load())
	}
	rec, err := wal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Records != 3 || rec.Value(1, nil) != int64(3) {
		t.Fatalf("recovered records=%d values=%v, want 3 records", rec.Records, rec.Values)
	}
}

// TestLatchedWriterRefuses: one hook failure latches the writer; every later
// operation reports the original error.
func TestLatchedWriterRefuses(t *testing.T) {
	dir := t.TempDir()
	boom := os.ErrClosed
	fail := false
	w, err := wal.Open(wal.Options{Dir: dir, Hooks: wal.Hooks{BeforeAppend: func() error {
		if fail {
			return boom
		}
		return nil
	}}})
	if err != nil {
		t.Fatal(err)
	}
	appendT(t, w, 1, 1, lw(1, int64(1)))
	fail = true
	if _, err := w.Append([]stm.CommitRecord{{Serial: 2, Tie: 2, Writes: []stm.LoggedWrite{lw(1, int64(2))}}}); err == nil {
		t.Fatal("want injected append failure")
	}
	if w.Err() == nil {
		t.Fatal("writer must latch the failure")
	}
	if _, err := w.Append([]stm.CommitRecord{{Serial: 3, Tie: 3, Writes: []stm.LoggedWrite{lw(1, int64(3))}}}); err == nil {
		t.Fatal("latched writer must refuse further appends")
	}
	w.Close()
	rec, err := wal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Records != 1 || rec.Value(1, nil) != int64(1) {
		t.Fatalf("pre-latch record must survive alone: %+v", rec)
	}
}

func newestSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s (%v)", dir, err)
	}
	return segs[len(segs)-1]
}
