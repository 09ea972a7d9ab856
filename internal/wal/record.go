package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/stm"
)

// On-disk framing. Segments are a magic header followed by records:
//
//	record  = bodyLen:u32 | body | crc:u32(IEEE over body)
//	body    = type:u8 | payload
//	commit  = ntx:u32 | ntx × (serial:u64 | tie:u64 | nwrites:u32 | writes)
//	write   = varID:u64 | value
//	meta    = metaSeq:u64 | len:u32 | payload bytes
//	value   = tag:u8 | data (see encodeValue)
//
// All integers are little-endian and fixed-width: the log is a durability
// artifact, not a wire format, and fixed widths keep torn-tail detection a
// pure length/CRC question.
//
// Type 3 was the commit frame of engines that split the clock into shards (a
// per-record shard vector after tie). Those engines are gone, and their
// serials are not comparable across shards, so recovery refuses such a log
// with ErrShardedLog rather than replay it on one clock.
const (
	segMagic  = "TWMWAL1\n"
	snapMagic = "TWMSNP1\n"

	recCommit        = 1
	recMeta          = 2
	recShardedCommit = 3 // refused: ErrShardedLog
)

// Value codec tags. The WAL stores stm.Values of the transparent Go types the
// repository's workloads use; anything else fails the append (durable stores
// require loggable value types).
const (
	tagNil = iota
	tagFalse
	tagTrue
	tagInt64
	tagUint64
	tagFloat64
	tagString
	tagBytes
	tagInt
)

// ErrValueType reports a write whose value the codec cannot represent.
var ErrValueType = errors.New("wal: unsupported value type (loggable types: nil, bool, int, int64, uint64, float64, string, []byte)")

// ErrShardedLog reports a log or snapshot written by a clock-sharded engine.
// Its serials live on per-shard number lines this build cannot order, so
// Recover fails on it instead of skipping it as damaged: a skipped snapshot
// would silently drop the segments it let Prune delete.
var ErrShardedLog = errors.New("wal: written by a clock-sharded engine; this build recovers single-clock logs only")

// errCorrupt reports a structurally invalid record or snapshot body.
var errCorrupt = errors.New("wal: corrupt record")

func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

func encodeValue(b []byte, v stm.Value) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(b, tagNil), nil
	case bool:
		if x {
			return append(b, tagTrue), nil
		}
		return append(b, tagFalse), nil
	case int64:
		return appendU64(append(b, tagInt64), uint64(x)), nil
	case int:
		return appendU64(append(b, tagInt), uint64(x)), nil
	case uint64:
		return appendU64(append(b, tagUint64), x), nil
	case float64:
		return appendU64(append(b, tagFloat64), math.Float64bits(x)), nil
	case string:
		b = appendU32(append(b, tagString), uint32(len(x)))
		return append(b, x...), nil
	case []byte:
		b = appendU32(append(b, tagBytes), uint32(len(x)))
		return append(b, x...), nil
	default:
		return nil, fmt.Errorf("%w: %T", ErrValueType, v)
	}
}

func decodeValue(b []byte) (stm.Value, []byte, error) {
	if len(b) < 1 {
		return nil, nil, errCorrupt
	}
	tag, b := b[0], b[1:]
	switch tag {
	case tagNil:
		return nil, b, nil
	case tagFalse:
		return false, b, nil
	case tagTrue:
		return true, b, nil
	case tagInt64, tagInt, tagUint64, tagFloat64:
		if len(b) < 8 {
			return nil, nil, errCorrupt
		}
		u := binary.LittleEndian.Uint64(b)
		b = b[8:]
		switch tag {
		case tagInt64:
			return int64(u), b, nil
		case tagInt:
			return int(u), b, nil
		case tagFloat64:
			return math.Float64frombits(u), b, nil
		}
		return u, b, nil
	case tagString, tagBytes:
		if len(b) < 4 {
			return nil, nil, errCorrupt
		}
		n := int(binary.LittleEndian.Uint32(b))
		b = b[4:]
		if n < 0 || len(b) < n {
			return nil, nil, errCorrupt
		}
		if tag == tagString {
			return string(b[:n]), b[n:], nil
		}
		return append([]byte(nil), b[:n]...), b[n:], nil
	default:
		return nil, nil, errCorrupt
	}
}

// encodeCommitBody appends the body of a commit record (type byte included).
func encodeCommitBody(b []byte, recs []stm.CommitRecord) ([]byte, error) {
	b = append(b, recCommit)
	b = appendU32(b, uint32(len(recs)))
	for i := range recs {
		r := &recs[i]
		b = appendU64(b, r.Serial)
		b = appendU64(b, r.Tie)
		b = appendU32(b, uint32(len(r.Writes)))
		for _, w := range r.Writes {
			b = appendU64(b, w.VarID)
			var err error
			if b, err = encodeValue(b, w.Value); err != nil {
				return nil, err
			}
		}
	}
	return b, nil
}

// decodeCommitBody parses a commit-record body past the type byte. The
// counts come from disk, so each is checked against what the remaining bytes
// can hold (a transaction takes at least 20, a write at least 9) before it
// sizes an allocation.
func decodeCommitBody(b []byte) ([]stm.CommitRecord, error) {
	if len(b) < 4 {
		return nil, errCorrupt
	}
	ntx := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	if ntx > len(b)/20 {
		return nil, errCorrupt
	}
	recs := make([]stm.CommitRecord, 0, ntx)
	for i := 0; i < ntx; i++ {
		if len(b) < 20 {
			return nil, errCorrupt
		}
		var r stm.CommitRecord
		r.Serial = binary.LittleEndian.Uint64(b)
		r.Tie = binary.LittleEndian.Uint64(b[8:])
		nw := int(binary.LittleEndian.Uint32(b[16:]))
		b = b[20:]
		if nw > len(b)/9 {
			return nil, errCorrupt
		}
		r.Writes = make([]stm.LoggedWrite, 0, nw)
		for j := 0; j < nw; j++ {
			if len(b) < 8 {
				return nil, errCorrupt
			}
			id := binary.LittleEndian.Uint64(b)
			b = b[8:]
			val, rest, err := decodeValue(b)
			if err != nil {
				return nil, err
			}
			b = rest
			r.Writes = append(r.Writes, stm.LoggedWrite{VarID: id, Value: val})
		}
		recs = append(recs, r)
	}
	if len(b) != 0 {
		return nil, errCorrupt
	}
	return recs, nil
}

// encodeMetaBody appends the body of a meta record (type byte included).
func encodeMetaBody(b []byte, seq uint64, payload []byte) []byte {
	b = append(b, recMeta)
	b = appendU64(b, seq)
	b = appendU32(b, uint32(len(payload)))
	return append(b, payload...)
}

// decodeMetaBody parses a meta-record body past the type byte.
func decodeMetaBody(b []byte) (seq uint64, payload []byte, err error) {
	if len(b) < 12 {
		return 0, nil, errCorrupt
	}
	seq = binary.LittleEndian.Uint64(b)
	n := int(binary.LittleEndian.Uint32(b[8:]))
	b = b[12:]
	if len(b) != n {
		return 0, nil, errCorrupt
	}
	return seq, append([]byte(nil), b...), nil
}

// frame wraps a body into a full record: length prefix and CRC suffix.
func frame(dst, body []byte) []byte {
	dst = appendU32(dst, uint32(len(body)))
	dst = append(dst, body...)
	return appendU32(dst, crc32.ChecksumIEEE(body))
}
