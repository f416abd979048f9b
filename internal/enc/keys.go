package enc

import (
	"encoding/binary"
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

// KeyNode encodes a LineageStore node key: (nodeId, ts).
func KeyNode(id model.NodeID, ts model.Timestamp) []byte {
	return AppendKeyTS(AppendKeyPrefix(make([]byte, 0, 18), int64(id)), ts)
}

// KeyRel encodes a (relId, ts) key, the node key's shape: no tree of this
// format holds one, but the benchmark's B+Tree probe keys relationships so.
func KeyRel(id model.RelID, ts model.Timestamp) []byte { return KeyNode(model.NodeID(id), ts) }

// AppendKeyPrefix appends one key component, at most 9 bytes. A key whose
// leading components are the prefix's lies in [prefix(id), prefix(id+1)) for
// the last one, and the bare prefix sorts below them all.
func AppendKeyPrefix(b []byte, id int64) []byte { return appendUint(b, uint64(id)) }

// AppendKeyTS appends the timestamp that ends every version key, after its
// entity's prefix: (id) in the node tree, (src, rel) in the relationship tree.
func AppendKeyTS(b []byte, ts model.Timestamp) []byte { return appendUint(b, uint64(ts)) }

// ParseKeyTS decodes what follows an entity's prefix in one of its keys; ok
// is false for anything but one component.
func ParseKeyTS(rest []byte) (ts model.Timestamp, ok bool) {
	v, rest, ok := readUint(rest)
	return model.Timestamp(v), ok && len(rest) == 0
}

// AppendKeyIncident appends an incident-tree key, (aId, relId, ts), to b. The
// relationship tree clusters each relationship's version records under its
// source, (srcId, relId, ts): a node's outgoing relationships, histories and
// all, are one range. in.idx keys a relationship's events under its target,
// (tgtId, relId, ts). Table 2 keys neighbours by (srcId, tgtId, ts); keying by
// the relationship keeps its entries contiguous in both trees, and parallel
// relationships apart.
func AppendKeyIncident(b []byte, a model.NodeID, rel model.RelID, ts model.Timestamp) []byte {
	return AppendKeyTS(AppendKeyPrefix(AppendKeyPrefix(b, int64(a)), int64(rel)), ts)
}

// ParseKeyIncident decodes a key written by AppendKeyIncident; ok is false,
// and the rest zero, for bytes it cannot have written.
func ParseKeyIncident(k []byte) (a model.NodeID, rel model.RelID, ts model.Timestamp, ok bool) {
	var v [3]uint64
	for i := range v {
		v[i], k, ok = readUint(k)
	}
	if !ok || len(k) != 0 {
		return 0, 0, 0, false
	}
	return model.NodeID(v[0]), model.RelID(v[1]), model.Timestamp(v[2]), true
}

// AppendIncomingValue appends an in.idx value: the source, shifted left one
// bit to carry the deletion flag, a uvarint.
func AppendIncomingValue(b []byte, deleted bool, src model.NodeID) []byte {
	v := uint64(src) << 1
	if deleted {
		v |= 1
	}
	return binary.AppendUvarint(b, v)
}

// ParseIncomingValue decodes a value written by AppendIncomingValue; ok is
// false unless v is exactly one minimal uvarint.
func ParseIncomingValue(v []byte) (deleted bool, src model.NodeID, ok bool) {
	x, rest, err := readUvarint(v, "src")
	if err != nil || len(rest) != 0 {
		return false, 0, false
	}
	return x&1 == 1, model.NodeID(x >> 1), true
}
