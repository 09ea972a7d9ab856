package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"repro/internal/stm"
)

// Recovered is the replayed durable state of a log directory.
type Recovered struct {
	// Serial is the highest serialization key seen anywhere (snapshot or
	// log). Seed the engine clock with it so post-recovery commits order
	// strictly after everything recovered.
	Serial uint64
	// Metas holds every application metadata payload in append order —
	// snapshot metas first, then log metas with higher sequence numbers.
	// Replaying them in order recreates variables with the same ids they
	// had before the crash.
	Metas [][]byte
	// Values maps variable id to its recovered value. Variables absent here
	// keep whatever initial value their meta replay assigns.
	Values map[uint64]stm.Value
	// Records counts replayed commit records; Torn reports that a torn
	// final record was truncated (expected after a crash mid-append).
	Records int
	Torn    bool
	// SnapshotSerial is the serial of the snapshot used, 0 when none.
	SnapshotSerial uint64

	wins map[uint64]winner // fold state: winning (Serial, Tie) per var
}

// winner is the serialization key of the currently winning write of one
// variable during the replay fold.
type winner struct{ serial, tie uint64 }

// Value returns the recovered value of varID, or fallback when the durable
// state never wrote it.
func (r *Recovered) Value(varID uint64, fallback stm.Value) stm.Value {
	if v, ok := r.Values[varID]; ok {
		return v
	}
	return fallback
}

// Recover replays dir: the newest readable snapshot plus every commit record
// with Serial above it, folded per variable in serialization order (max
// Serial wins; equal Serial resolves to min Tie, matching the in-memory
// clash-elision rule). The fold is idempotent, so duplicated segments and
// re-delivered records are harmless. A torn or checksum-failed record at the
// tail of the newest segment is truncated (Torn=true) — that is the normal
// shape of a crash mid-append; the same damage anywhere else is corruption
// and fails loudly, as does a log a clock-sharded engine wrote
// (ErrShardedLog).
func Recover(dir string) (*Recovered, error) {
	out := &Recovered{
		Values: make(map[uint64]stm.Value),
		wins:   make(map[uint64]winner),
	}
	segs, snaps, err := listDir(dir)
	if err != nil {
		return nil, err
	}

	// Newest readable snapshot wins; damaged ones are skipped, not fatal —
	// older snapshots plus longer replay reproduce the same state. A sharded
	// one is not damaged: skipping it would lose what its prune deleted.
	for i := len(snaps) - 1; i >= 0; i-- {
		s, err := readSnapshot(filepath.Join(dir, snaps[i].name))
		if errors.Is(err, ErrShardedLog) {
			return nil, fmt.Errorf("wal: snapshot %s: %w", snaps[i].name, err)
		}
		if err != nil {
			continue
		}
		out.SnapshotSerial = s.Serial
		out.Serial = s.Serial
		out.Metas = append(out.Metas, s.Metas...)
		for id, v := range s.Values {
			// No fold entry: every surviving record has Serial above the
			// snapshot's and overrides the snapshot value unconditionally.
			out.Values[id] = v
		}
		break
	}
	nextMeta := uint64(len(out.Metas))

	for i, seg := range segs {
		last := i == len(segs)-1
		if err := out.replaySegment(filepath.Join(dir, seg.name), last, &nextMeta); err != nil {
			return nil, fmt.Errorf("wal: segment %s: %w", seg.name, err)
		}
		if out.Torn {
			break // nothing readable follows a torn tail
		}
	}
	return out, nil
}

// replaySegment folds one segment's records into out. In the final segment a
// structurally broken record marks a torn tail; elsewhere it is an error.
func (r *Recovered) replaySegment(path string, last bool, nextMeta *uint64) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(raw) < len(segMagic) || string(raw[:len(segMagic)]) != segMagic {
		if last && len(raw) < len(segMagic) {
			r.Torn = true
			return nil
		}
		return errCorrupt
	}
	raw = raw[len(segMagic):]
	for len(raw) > 0 {
		body, rest, ok := nextRecord(raw)
		if !ok {
			if last {
				r.Torn = true
				return nil
			}
			return errCorrupt
		}
		raw = rest
		if err := r.apply(body, nextMeta); err != nil {
			return err
		}
	}
	return nil
}

// nextRecord slices one framed record off raw, verifying length and CRC.
func nextRecord(raw []byte) (body, rest []byte, ok bool) {
	if len(raw) < 4 {
		return nil, nil, false
	}
	n := int(binary.LittleEndian.Uint32(raw))
	if n < 1 || len(raw) < 4+n+4 {
		return nil, nil, false
	}
	body = raw[4 : 4+n]
	sum := binary.LittleEndian.Uint32(raw[4+n:])
	if crc32.ChecksumIEEE(body) != sum {
		return nil, nil, false
	}
	return body, raw[4+n+4:], true
}

// apply folds one record body.
func (r *Recovered) apply(body []byte, nextMeta *uint64) error {
	switch body[0] {
	case recShardedCommit:
		return ErrShardedLog
	case recCommit:
		recs, err := decodeCommitBody(body[1:])
		if err != nil {
			return err
		}
		r.Records++
		for i := range recs {
			rec := &recs[i]
			if rec.Serial > r.Serial {
				r.Serial = rec.Serial
			}
			if rec.Serial <= r.SnapshotSerial {
				continue // value-covered by the snapshot
			}
			for _, w := range rec.Writes {
				// Per-variable serialization fold: max Serial wins; equal
				// Serial means a time-warp clash elided the later natural
				// committer, so the smaller Tie is the readable version.
				// Idempotent under re-delivery.
				if cur, ok := r.wins[w.VarID]; ok {
					if rec.Serial < cur.serial ||
						(rec.Serial == cur.serial && rec.Tie >= cur.tie) {
						continue
					}
				}
				r.Values[w.VarID] = w.Value
				r.wins[w.VarID] = winner{rec.Serial, rec.Tie}
			}
		}
		return nil
	case recMeta:
		seq, payload, err := decodeMetaBody(body[1:])
		if err != nil {
			return err
		}
		switch {
		case seq < *nextMeta:
			return nil // covered by the snapshot or a duplicated segment
		case seq == *nextMeta:
			r.Metas = append(r.Metas, payload)
			*nextMeta++
			return nil
		default:
			return fmt.Errorf("%w: meta sequence gap (%d, want %d)", errCorrupt, seq, *nextMeta)
		}
	default:
		return errCorrupt
	}
}
