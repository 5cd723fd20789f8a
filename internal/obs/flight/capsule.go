package flight

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
)

// Capsule format (little endian), version 1:
//
//	magic    [4]byte "RFLT"
//	version  uint32
//	metaLen  uint32
//	meta     metaLen bytes of JSON (Meta below)
//	count    uint32
//	records  count × 44-byte fixed records:
//	           seq u64, tBits u64 (float64 bits), kind u16, reserved u16,
//	           a i32, b i32, v1 i64, v2 i64
//	crc      uint32 IEEE CRC32 over everything above
//
// Compatibility rule: the version is bumped only when the record layout
// changes; new *kinds* within a version are not a format change. Readers
// accept any capsule with version ≤ their own CapsuleVersion and must
// preserve (and render generically) kinds they do not recognize, so a
// capsule from a newer same-version writer still replays.
const (
	CapsuleVersion = 1
	capsuleMagic   = "RFLT"
	recordLen      = 44
)

// Meta is the capsule's JSON header: why it was dumped and what it spans.
type Meta struct {
	Version    int     `json:"version"`
	Reason     string  `json:"reason"`
	TriggerSeq uint64  `json:"trigger_seq"`
	TriggerT   float64 `json:"trigger_t"`
	WindowSec  float64 `json:"window_sec"`
	Count      int     `json:"count"`
	T0         float64 `json:"t0"` // earliest event time in the capsule
	T1         float64 `json:"t1"` // latest event time in the capsule
}

// writeCapsule serializes events (oldest first) into dir. The name embeds
// the dump ordinal and trigger sequence — both deterministic — so repeated
// runs of a seeded simulation produce identical file sets.
func writeCapsule(dir string, dumpN uint64, reason string, trigger Event, windowSec float64, events []Event) (string, error) {
	meta := Meta{
		Version:    CapsuleVersion,
		Reason:     reason,
		TriggerSeq: trigger.Seq,
		TriggerT:   trigger.T,
		WindowSec:  windowSec,
		Count:      len(events),
	}
	if len(events) > 0 {
		meta.T0, meta.T1 = events[0].T, events[0].T
		for _, ev := range events {
			if ev.T < meta.T0 {
				meta.T0 = ev.T
			}
			if ev.T > meta.T1 {
				meta.T1 = ev.T
			}
		}
	}
	blob, err := EncodeCapsule(meta, events)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("flight: capsule dir: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("capsule-%04d-seq%08d.flight", dumpN, trigger.Seq))
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return "", fmt.Errorf("flight: write capsule: %w", err)
	}
	return path, nil
}

// EncodeCapsule serializes a capsule to its binary form. Exposed so tests
// and tools can build capsules without a ring.
func EncodeCapsule(meta Meta, events []Event) ([]byte, error) {
	meta.Version = CapsuleVersion
	meta.Count = len(events)
	mj, err := json.Marshal(meta)
	if err != nil {
		return nil, fmt.Errorf("flight: capsule meta: %w", err)
	}
	buf := make([]byte, 0, 16+len(mj)+len(events)*recordLen+4)
	buf = append(buf, capsuleMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, CapsuleVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(mj)))
	buf = append(buf, mj...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(events)))
	for _, ev := range events {
		buf = binary.LittleEndian.AppendUint64(buf, ev.Seq)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(ev.T))
		buf = binary.LittleEndian.AppendUint16(buf, uint16(ev.Kind))
		buf = binary.LittleEndian.AppendUint16(buf, 0)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(ev.A))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(ev.B))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(ev.V1))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(ev.V2))
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf)), nil
}

var errBadCapsule = errors.New("flight: malformed capsule")

// DecodeCapsule parses a capsule blob, validating magic, version, CRC,
// and size arithmetic. Events come back oldest-first exactly as written;
// unknown kinds are preserved.
func DecodeCapsule(b []byte) (Meta, []Event, error) {
	if len(b) < 16+4 || string(b[:4]) != capsuleMagic {
		return Meta{}, nil, errBadCapsule
	}
	body, tail := b[:len(b)-4], b[len(b)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return Meta{}, nil, errors.New("flight: capsule CRC mismatch")
	}
	ver := binary.LittleEndian.Uint32(b[4:])
	if ver == 0 || ver > CapsuleVersion {
		return Meta{}, nil, fmt.Errorf("flight: capsule version %d, reader supports ≤ %d", ver, CapsuleVersion)
	}
	metaLen := int(binary.LittleEndian.Uint32(b[8:]))
	if 12+metaLen+4 > len(body) {
		return Meta{}, nil, errBadCapsule
	}
	var meta Meta
	if err := json.Unmarshal(b[12:12+metaLen], &meta); err != nil {
		return Meta{}, nil, fmt.Errorf("flight: capsule meta: %w", err)
	}
	off := 12 + metaLen
	count := int(binary.LittleEndian.Uint32(b[off:]))
	off += 4
	if off+count*recordLen != len(body) {
		return Meta{}, nil, errBadCapsule
	}
	events := make([]Event, count)
	for i := range events {
		r := b[off+i*recordLen:]
		events[i] = Event{
			Seq:  binary.LittleEndian.Uint64(r[0:]),
			T:    math.Float64frombits(binary.LittleEndian.Uint64(r[8:])),
			Kind: Kind(binary.LittleEndian.Uint16(r[16:])),
			A:    int32(binary.LittleEndian.Uint32(r[20:])),
			B:    int32(binary.LittleEndian.Uint32(r[24:])),
			V1:   int64(binary.LittleEndian.Uint64(r[28:])),
			V2:   int64(binary.LittleEndian.Uint64(r[36:])),
		}
	}
	return meta, events, nil
}

// ReadCapsule loads and decodes a capsule file.
func ReadCapsule(path string) (Meta, []Event, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Meta{}, nil, err
	}
	return DecodeCapsule(b)
}
