package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/stm"
)

// TestDecodeCommitBodyBoundsCounts: the transaction and write counts of a
// commit body are read from disk, so a few bytes declaring 2^20 of either
// must fail as corrupt without first allocating room for them.
func TestDecodeCommitBodyBoundsCounts(t *testing.T) {
	const huge = 1 << 20
	for _, c := range []struct {
		name string
		body []byte
	}{
		{"transactions", appendU32(nil, huge)},
		{"writes", appendU32(appendU64(appendU64(appendU32(nil, 1), 1), 1), huge)},
	} {
		t.Run(c.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := decodeCommitBody(c.body)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, errCorrupt) {
				t.Fatalf("decodeCommitBody = %v, want errCorrupt", err)
			}
			if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
				t.Fatalf("decoding a %d-byte body allocated %d bytes", len(c.body), n)
			}
		})
	}
}

// seedSegments returns whole segments to seed the fuzz targets: the
// single-clock fixture's, and one freshly written with metas and every value
// type.
func seedSegments(f *testing.F) [][]byte {
	fixture, err := os.ReadFile(filepath.Join("testdata", "unsharded", "wal-00000002.seg"))
	if err != nil {
		f.Fatal(err)
	}
	dir := f.TempDir()
	w, err := Open(Options{Dir: dir})
	if err != nil {
		f.Fatal(err)
	}
	if err := w.AppendMeta([]byte("accounts:2")); err != nil {
		f.Fatal(err)
	}
	for _, recs := range [][]stm.CommitRecord{
		{{Serial: 1, Tie: 1, Writes: []stm.LoggedWrite{{VarID: 1, Value: int64(-5)}, {VarID: 2, Value: "two"}}}},
		{{Serial: 2, Tie: 2, Writes: []stm.LoggedWrite{{VarID: 3, Value: []byte{7}}, {VarID: 4, Value: true}, {VarID: 5, Value: nil}}},
			{Serial: 2, Tie: 3, Writes: []stm.LoggedWrite{{VarID: 6, Value: 1.5}, {VarID: 7, Value: uint64(8)}, {VarID: 8, Value: 9}, {VarID: 9, Value: false}}}},
	} {
		if _, err := w.Append(recs); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.AppendMeta([]byte("accounts:3")); err != nil {
		f.Fatal(err)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	fresh, err := os.ReadFile(segPath(dir, 1))
	if err != nil {
		f.Fatal(err)
	}
	return [][]byte{fixture, fresh}
}

// FuzzRecordBody: the record decoders never panic, and a body either one
// accepts re-encodes byte for byte, so no two encodings decode alike. The
// input is the body past its type byte; both decoders see every input.
func FuzzRecordBody(f *testing.F) {
	for _, seg := range seedSegments(f) {
		for raw := seg[len(segMagic):]; ; {
			body, rest, ok := nextRecord(raw)
			if !ok {
				break
			}
			f.Add(body[1:])
			raw = rest
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if recs, err := decodeCommitBody(b); err == nil {
			again, err := encodeCommitBody(nil, recs)
			if err != nil {
				t.Fatalf("re-encoding decoded commit %+v: %v", recs, err)
			}
			if want := append([]byte{recCommit}, b...); !bytes.Equal(again, want) {
				t.Fatalf("commit body re-encodes as %x, want %x", again, want)
			}
		}
		if seq, payload, err := decodeMetaBody(b); err == nil {
			if again, want := encodeMetaBody(nil, seq, payload), append([]byte{recMeta}, b...); !bytes.Equal(again, want) {
				t.Fatalf("meta body re-encodes as %x, want %x", again, want)
			}
		}
	})
}

// FuzzRecoverSegment: Recover never panics on one segment's bytes, and
// damage forgiven as a torn tail is never forgiven in the middle — the same
// bytes followed by a valid segment must fail if they alone recovered torn
// or failed, and otherwise recover untorn with the valid segment's one
// record added and the same metas.
func FuzzRecoverSegment(f *testing.F) {
	for _, seg := range seedSegments(f) {
		f.Add(seg)
	}
	body, err := encodeCommitBody(nil, []stm.CommitRecord{{Serial: 1 << 40, Tie: 1, Writes: []stm.LoggedWrite{{VarID: 1, Value: int64(1)}}}})
	if err != nil {
		f.Fatal(err)
	}
	valid := frame([]byte(segMagic), body)
	// One directory per shape, rewritten by every input: a fresh TempDir per
	// input would cost more than the recovery it tests.
	aloneDir, pairDir := f.TempDir(), f.TempDir()
	f.Fuzz(func(t *testing.T, seg []byte) {
		for _, file := range []struct {
			dir  string
			seq  uint64
			data []byte
		}{{aloneDir, 1, seg}, {pairDir, 1, seg}, {pairDir, 2, valid}} {
			if err := os.WriteFile(segPath(file.dir, file.seq), file.data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		alone, errAlone := Recover(aloneDir)
		pair, errPair := Recover(pairDir)
		if errAlone != nil || alone.Torn {
			if errPair == nil {
				t.Fatalf("damage accepted in a middle segment: alone err=%v torn=%v; pair %+v", errAlone, errAlone == nil && alone.Torn, pair)
			}
			return
		}
		if errPair != nil || pair.Torn || pair.Records != alone.Records+1 || !reflect.DeepEqual(pair.Metas, alone.Metas) {
			t.Fatalf("alone %+v recovered, but with a valid segment after it: %+v, %v", alone, pair, errPair)
		}
	})
}
