package enc

import (
	"encoding/binary"
	"fmt"

	"aion/internal/model"
)

// Delta snapshot records: the header frame of the .dsnap chain files the
// TimeStore stores its full and differential snapshots in (after DeltaGraph's
// hierarchical delta snapshots). A chain file is a sequence of len+CRC
// frames; frame 0 is the header encoded here, every later one a block
// (batch.go) of up to 256 update records, Count of them in all. The header
// makes every chain file self-describing: recovery derives the whole chain
// from the headers alone (derive-don't-trust), so the file name is only a
// convenience that must agree with the header.

// deltaMagic identifies a delta-snapshot header record ("Aion Delta
// Snapshot v2": v1's record frames held one record each).
var deltaMagic = [4]byte{'A', 'D', 'S', '2'}

// DeltaKind distinguishes the two chain element flavours.
type DeltaKind uint8

const (
	// DeltaFull is a complete graph materialization at the header position.
	DeltaFull DeltaKind = 0
	// DeltaDiff is a differential snapshot: the compacted updates that turn
	// the base element's graph into this element's graph.
	DeltaDiff DeltaKind = 1
)

// String names the kind as used in chain file names.
func (k DeltaKind) String() string {
	if k == DeltaFull {
		return "full"
	}
	return "delta"
}

// DeltaHeader is the metadata record of one chain element. TS/Seq is the
// exact log position (timestamp, sequence) the element is complete
// through; BaseTS/BaseSeq is the position of the element a DeltaDiff
// applies on top of (unused for DeltaFull); LogOff is the partition-log
// offset of the first record NOT covered by the element, so replay past
// the element starts there; Count is the number of update records that
// follow the header in the file.
type DeltaHeader struct {
	Kind    DeltaKind
	TS      model.Timestamp
	Seq     uint32
	BaseTS  model.Timestamp
	BaseSeq uint32
	LogOff  int64
	Count   uint64
}

// AppendDeltaHeader encodes h onto buf and returns the extended slice.
// Timestamps are encoded as uvarints of their two's-complement bit
// pattern, so the -1 entry position (the state before any update) encodes
// losslessly.
func AppendDeltaHeader(buf []byte, h DeltaHeader) []byte {
	buf = append(buf, deltaMagic[:]...)
	buf = append(buf, byte(h.Kind))
	buf = binary.AppendUvarint(buf, uint64(h.TS))
	buf = binary.AppendUvarint(buf, uint64(h.Seq))
	buf = binary.AppendUvarint(buf, uint64(h.BaseTS))
	buf = binary.AppendUvarint(buf, uint64(h.BaseSeq))
	buf = binary.AppendUvarint(buf, uint64(h.LogOff))
	buf = binary.AppendUvarint(buf, h.Count)
	return buf
}

// DecodeDeltaHeader decodes a record produced by AppendDeltaHeader,
// rejecting anything that is not a well-formed header (wrong magic,
// unknown kind, truncated or oversized fields, trailing garbage).
func DecodeDeltaHeader(b []byte) (DeltaHeader, error) {
	var h DeltaHeader
	if len(b) < len(deltaMagic)+1 {
		return h, fmt.Errorf("enc: delta header too short (%d bytes)", len(b))
	}
	for i, m := range deltaMagic {
		if b[i] != m {
			return h, fmt.Errorf("enc: bad delta magic %q", b[:len(deltaMagic)])
		}
	}
	b = b[len(deltaMagic):]
	h.Kind = DeltaKind(b[0])
	if h.Kind != DeltaFull && h.Kind != DeltaDiff {
		return h, fmt.Errorf("enc: unknown delta kind %d", b[0])
	}
	b = b[1:]
	fields := []struct {
		name string
		max  uint64 // 0 means the full uint64 range
		set  func(uint64)
	}{
		{"ts", 0, func(v uint64) { h.TS = model.Timestamp(v) }},
		{"seq", 1<<32 - 1, func(v uint64) { h.Seq = uint32(v) }},
		{"base_ts", 0, func(v uint64) { h.BaseTS = model.Timestamp(v) }},
		{"base_seq", 1<<32 - 1, func(v uint64) { h.BaseSeq = uint32(v) }},
		{"log_off", 0, func(v uint64) { h.LogOff = int64(v) }},
		{"count", 0, func(v uint64) { h.Count = v }},
	}
	for _, f := range fields {
		v, w := binary.Uvarint(b)
		if w <= 0 {
			return h, fmt.Errorf("enc: delta header %s truncated", f.name)
		}
		// Uvarint tolerates non-minimal encodings (a zero final byte adds
		// nothing); reject them so exactly one byte string encodes each
		// header — accepted bytes must re-encode identically.
		if w > 1 && b[w-1] == 0 {
			return h, fmt.Errorf("enc: delta header %s not minimally encoded", f.name)
		}
		if f.max != 0 && v > f.max {
			return h, fmt.Errorf("enc: delta header %s %d out of range", f.name, v)
		}
		b = b[w:]
		f.set(v)
	}
	if len(b) != 0 {
		return h, fmt.Errorf("enc: %d trailing bytes after delta header", len(b))
	}
	return h, h.validate()
}

// validate rejects headers whose fields are semantically impossible, so a
// mutated-but-parseable header cannot send recovery to a bogus position.
func (h DeltaHeader) validate() error {
	if h.LogOff < 0 {
		return fmt.Errorf("enc: delta header log offset %d negative", h.LogOff)
	}
	if h.Kind == DeltaDiff {
		if h.BaseTS > h.TS || (h.BaseTS == h.TS && h.BaseSeq >= h.Seq) {
			return fmt.Errorf("enc: delta base (%d,%d) not before position (%d,%d)",
				h.BaseTS, h.BaseSeq, h.TS, h.Seq)
		}
	}
	return nil
}
