package enc

import (
	"encoding/binary"

	"aion/internal/model"
)

// Composite B+Tree key encodings for the hybrid store (Table 2). All keys
// are big-endian so byte-wise lexicographic comparison matches numeric
// ordering; composite keys order first by entity identifier(s), then by
// timestamp, which keeps an entity's full history in the same or adjacent
// pages (Sec 4.4).

func putU64(b []byte, v uint64) []byte {
	var x [8]byte
	binary.BigEndian.PutUint64(x[:], v)
	return append(b, x[:]...)
}

// KeyNode encodes a LineageStore node key: (nodeId, ts).
func KeyNode(id model.NodeID, ts model.Timestamp) []byte {
	b := make([]byte, 0, 16)
	b = putU64(b, uint64(id))
	return putU64(b, uint64(ts))
}

// ParseKeyNode decodes a key written by KeyNode.
func ParseKeyNode(k []byte) (model.NodeID, model.Timestamp) {
	return model.NodeID(binary.BigEndian.Uint64(k)), model.Timestamp(binary.BigEndian.Uint64(k[8:]))
}

// KeyRel encodes a LineageStore relationship key: (relId, ts).
func KeyRel(id model.RelID, ts model.Timestamp) []byte {
	b := make([]byte, 0, 16)
	b = putU64(b, uint64(id))
	return putU64(b, uint64(ts))
}

// ParseKeyRel decodes a key written by KeyRel.
func ParseKeyRel(k []byte) (model.RelID, model.Timestamp) {
	return model.RelID(binary.BigEndian.Uint64(k)), model.Timestamp(binary.BigEndian.Uint64(k[8:]))
}

// KeyNeigh encodes a neighbourhood key: (aId, bId, ts). For the
// out-neighbours index a is the source and b the target; for the
// in-neighbours index a is the target and b the source (Sec 4.2).
func KeyNeigh(a, b model.NodeID, ts model.Timestamp) []byte {
	buf := make([]byte, 0, 24)
	buf = putU64(buf, uint64(a))
	buf = putU64(buf, uint64(b))
	return putU64(buf, uint64(ts))
}

// KeyNeighPrefix encodes the (aId) prefix for scanning all neighbours of a.
func KeyNeighPrefix(a model.NodeID) []byte {
	return putU64(make([]byte, 0, 8), uint64(a))
}

// ParseKeyNeigh decodes a key written by KeyNeigh.
func ParseKeyNeigh(k []byte) (a, b model.NodeID, ts model.Timestamp) {
	return model.NodeID(binary.BigEndian.Uint64(k)),
		model.NodeID(binary.BigEndian.Uint64(k[8:])),
		model.Timestamp(binary.BigEndian.Uint64(k[16:]))
}

// KeyNeigh4 extends KeyNeigh with the relationship id as a fourth
// component: (aId, bId, ts, relId). The paper keys neighbour entries by
// (srcId, tgtId, ts) alone (Table 2); we add the rel id so that multigraph
// relationships created between the same endpoints at the same timestamp
// cannot collide. Ordering by (node, neighbour, time) is preserved.
func KeyNeigh4(a, b model.NodeID, ts model.Timestamp, rel model.RelID) []byte {
	buf := make([]byte, 0, 32)
	buf = putU64(buf, uint64(a))
	buf = putU64(buf, uint64(b))
	buf = putU64(buf, uint64(ts))
	return putU64(buf, uint64(rel))
}

// ParseKeyNeigh4 decodes a key written by KeyNeigh4.
func ParseKeyNeigh4(k []byte) (a, b model.NodeID, ts model.Timestamp, rel model.RelID) {
	return model.NodeID(binary.BigEndian.Uint64(k)),
		model.NodeID(binary.BigEndian.Uint64(k[8:])),
		model.Timestamp(binary.BigEndian.Uint64(k[16:])),
		model.RelID(binary.BigEndian.Uint64(k[24:]))
}

// NeighValue encodes a neighbourhood index value: the relationship id plus a
// deletion flag, mapping the adjacency entry back to the source data.
func NeighValue(rel model.RelID, deleted bool) []byte {
	b := putU64(make([]byte, 0, 9), uint64(rel))
	if deleted {
		return append(b, 1)
	}
	return append(b, 0)
}

// ParseNeighValue decodes a value written by NeighValue.
func ParseNeighValue(v []byte) (model.RelID, bool) {
	return model.RelID(binary.BigEndian.Uint64(v)), len(v) > 8 && v[8] != 0
}
