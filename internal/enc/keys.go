package enc

import (
	"math/bits"

	"aion/internal/model"
)

// Composite B+Tree key encodings for the hybrid store (Table 2). A key is
// its components in order, each one length byte n (0..8) followed by the
// component's n significant big-endian bytes. No component is a prefix of
// another and a longer one is a larger number, so byte-wise lexicographic
// comparison matches numeric tuple ordering; composite keys order first by
// entity identifier(s), then by timestamp, which keeps an entity's full
// history in the same or adjacent pages (Sec 4.4). Timestamps are cast to
// uint64: negative ones sort after every non-negative one.

func appendUint(b []byte, v uint64) []byte {
	n := (bits.Len64(v) + 7) / 8
	b = append(b, byte(n))
	for s := 8 * (n - 1); s >= 0; s -= 8 {
		b = append(b, byte(v>>s))
	}
	return b
}

// readUint decodes one component and returns the rest of the key. Tree pages
// carry no checksum, so any bytes may arrive here: ok is false for a length
// byte over 8, a key cut short, or a component appendUint would not have
// written (a leading zero byte) — and, rest being empty then, for every
// readUint of what a failed one returned.
func readUint(k []byte) (v uint64, rest []byte, ok bool) {
	if len(k) == 0 || k[0] > 8 || len(k) < 1+int(k[0]) || k[0] > 0 && k[1] == 0 {
		return 0, nil, false
	}
	n := 1 + int(k[0])
	for _, c := range k[1:n] {
		v = v<<8 | uint64(c)
	}
	return v, k[n:], true
}

// AppendKeyVersion appends a version-tree key, (entityId, ts), to b. The
// node tree and the relationship tree share this one format — KeyNode and
// KeyRel are its typed spellings — so one chain walker reads both.
func AppendKeyVersion(b []byte, id int64, ts model.Timestamp) []byte {
	return appendUint(appendUint(b, uint64(id)), uint64(ts))
}

// ParseKeyVersion decodes a key written by AppendKeyVersion; ok is false, and
// the rest zero, for bytes it cannot have written.
func ParseKeyVersion(k []byte) (id int64, ts model.Timestamp, ok bool) {
	a, k, _ := readUint(k)
	t, k, ok := readUint(k)
	if !ok || len(k) != 0 {
		return 0, 0, false
	}
	return int64(a), model.Timestamp(t), true
}

// KeyNode encodes a LineageStore node key: (nodeId, ts).
func KeyNode(id model.NodeID, ts model.Timestamp) []byte {
	return AppendKeyVersion(make([]byte, 0, 18), int64(id), ts)
}

// KeyRel encodes a LineageStore relationship key: (relId, ts).
func KeyRel(id model.RelID, ts model.Timestamp) []byte {
	return AppendKeyVersion(make([]byte, 0, 18), int64(id), ts)
}

// AppendKeyNeighPrefix appends the (aId) prefix all neighbourhood keys of a
// start with, at most 9 bytes: every key of a lies in [prefix(a), prefix(a+1)),
// and the bare prefix sorts below them all.
func AppendKeyNeighPrefix(buf []byte, a model.NodeID) []byte {
	return appendUint(buf, uint64(a))
}

// AppendKeyNeigh4 appends a neighbourhood key, (aId, bId, ts, relId), to
// buf. For the out-neighbours index a is the source and b the target; for
// the in-neighbours index a is the target and b the source (Sec 4.2). The
// paper keys neighbour entries by (srcId, tgtId, ts) alone (Table 2); we add
// the rel id so that multigraph relationships created between the same
// endpoints at the same timestamp cannot collide — and so the value need not
// repeat it. Ordering by (node, neighbour, time) is preserved.
func AppendKeyNeigh4(buf []byte, a, b model.NodeID, ts model.Timestamp, rel model.RelID) []byte {
	return appendUint(appendUint(appendUint(appendUint(buf, uint64(a)), uint64(b)), uint64(ts)), uint64(rel))
}

// ParseKeyNeigh4 decodes a key written by KeyNeigh4; ok is false, and the
// rest zero, for bytes KeyNeigh4 cannot have written.
func ParseKeyNeigh4(k []byte) (a, b model.NodeID, ts model.Timestamp, rel model.RelID, ok bool) {
	var v [4]uint64
	for i := range v {
		v[i], k, ok = readUint(k)
	}
	if !ok || len(k) != 0 {
		return 0, 0, 0, 0, false
	}
	return model.NodeID(v[0]), model.NodeID(v[1]), model.Timestamp(v[2]), model.RelID(v[3]), true
}

// NeighValue encodes a neighbourhood index value: the deletion flag. The
// relationship the entry maps back to is the key's fourth component.
func NeighValue(deleted bool) []byte {
	if deleted {
		return []byte{1}
	}
	return []byte{0}
}

// ParseNeighValue decodes a value written by NeighValue.
func ParseNeighValue(v []byte) (deleted bool) { return len(v) > 0 && v[0] != 0 }
