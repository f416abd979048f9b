// Package replica implements WAL-shipping replication for the combined
// host+Aion system: a primary-side Source tails the host database's durable
// transaction log and string table and streams their raw bytes to
// follower-side Appliers, which append them verbatim to their own files,
// replay the committed transactions into their own TimeStore and
// LineageStore, and advertise a replicated-watermark timestamp.
//
// The replication unit is the durable byte. Because history is append-only
// and immutable (the paper's core premise), a follower's files are always a
// byte-identical prefix of the primary's: positional string refs resolve
// without translation, resume offsets are plain file sizes, and divergence
// is detectable by offset and CRC comparison alone. Followers serve only
// reads at or below their watermark; everything newer is rejected with a
// retryable FAILURE that routing clients use to fall back to the primary.
//
// Robustness contract:
//   - Only fsync-covered bytes are ever shipped, so a follower can never
//     hold a commit its primary might lose — and the primary never acks a
//     commit that is not already durable locally, so no acked commit is
//     lost when either side crashes.
//   - A follower makes a shipment durable (append + fsync) BEFORE applying
//     it and advancing the watermark, so the watermark only ever covers
//     crash-surviving bytes and recovery can never move it backwards.
//   - Either side may crash at any point; the follower resumes from its
//     own durable extents after reopening, and the stream continues.
//   - A CRC or offset mismatch is divergence: the follower fail-stops
//     (sticky error, all reads rejected) rather than serve corrupt state.
package replica

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"aion/internal/bolt"
	"aion/internal/model"
)

// Shipment is one replication batch: a chunk of raw string-table bytes and
// a run of transaction-log record payloads, each tagged with the file
// offset it must land at on the follower, plus the primary's durable
// extents and clock for lag accounting.
type Shipment struct {
	// Epoch is the shipping primary's fencing epoch (see hostdb.Role). A
	// follower adopts a higher epoch and refuses a lower one — a stream
	// from a demoted primary must never extend the new timeline.
	Epoch uint64
	// StrOff is the string-table offset the Strings chunk starts at; it
	// must equal the follower's current string-table size.
	StrOff  int64
	Strings []byte
	// TxnOff is the transaction-log offset of the first frame; it must
	// equal the follower's current log size. NextTxn is the primary-side
	// offset just past the last frame (the next resume point).
	TxnOff  int64
	NextTxn int64
	// Frames are whole commit-record payloads in log order.
	Frames [][]byte
	// StrDurable/TxnDurable are the primary's durable extents and LatestTS
	// its commit clock when the shipment was built.
	StrDurable int64
	TxnDurable int64
	LatestTS   model.Timestamp
}

// Empty reports whether the shipment carries no bytes (heartbeat-only
// rounds skip it).
func (sh *Shipment) Empty() bool { return len(sh.Strings) == 0 && len(sh.Frames) == 0 }

// Stats is a snapshot of a node's replication counters, filled by either
// role: a Source (registry key "replica.source") its shipping counters, host
// clock and epoch; an Applier ("replica.applier") its apply counters and
// watermark. A promoted node lists both.
type Stats struct {
	FramesShipped, BytesShipped uint64 // log records, and their payload bytes, sent to followers
	FramesApplied, BytesApplied uint64 // records verified and applied on a follower
	Heartbeats                  uint64 // keepalives sent (source) or received (applier)
	Reconnects                  uint64 // follower stream re-establishments after a failed dial or stream
	Watermark                   int64  // the highest servable commit: host clock, or replicated watermark
	WatermarkLag                int64  // the primary's clock at the last heartbeat minus the watermark
	Epoch                       uint64 // the node's fencing epoch
	FencedStreams               uint64 // streams refused or ended because this node is not the primary
}

// Heartbeat is the keepalive a primary sends when it has nothing to ship:
// its durable extents and clock, from which the follower computes its lag,
// plus its fencing epoch.
type Heartbeat struct {
	Epoch      uint64
	StrDurable int64
	TxnDurable int64
	LatestTS   model.Timestamp
}

// Request is the body of the MsgReplicate frame a follower sends to start
// (or resume) a stream: its durable resume offsets, the highest epoch it
// has observed, and a digest of the tail bytes below those offsets.
//
// The tail digest closes the rejoin hole the offsets alone leave open: a
// demoted primary's files can have plausible lengths while holding a
// DIFFERENT suffix than the new timeline (the commits it acked alone just
// before being fenced). The serving primary recomputes the CRCs over the
// same ranges of its own files — which every legitimate follower's files
// are a byte prefix of — and a mismatch is proof of divergence, answered
// with FailDiverged before a single byte is shipped.
type Request struct {
	StrOff, TxnOff int64
	Epoch          uint64
	// StrTailLen bytes ending at StrOff hash to StrTailCRC; likewise for
	// the transaction log. Zero lengths skip the check (empty files).
	StrTailLen, TxnTailLen int64
	StrTailCRC, TxnTailCRC uint32
}

// --- wire encoding ----------------------------------------------------------
//
// Shipments ride on Bolt's length-prefixed framing. Every byte run carries
// its own CRC32 even though the WAL records are CRC-guarded on disk: the
// stream check catches corruption introduced in flight or by an off-by-one
// in offset bookkeeping before anything touches the follower's files.

// EncodeRequest encodes the MsgReplicate frame a follower sends to start
// (or resume) the stream.
func EncodeRequest(req Request) []byte {
	b := []byte{bolt.MsgReplicate}
	b = binary.AppendUvarint(b, uint64(req.StrOff))
	b = binary.AppendUvarint(b, uint64(req.TxnOff))
	b = binary.AppendUvarint(b, req.Epoch)
	b = binary.AppendUvarint(b, uint64(req.StrTailLen))
	b = binary.LittleEndian.AppendUint32(b, req.StrTailCRC)
	b = binary.AppendUvarint(b, uint64(req.TxnTailLen))
	return binary.LittleEndian.AppendUint32(b, req.TxnTailCRC)
}

// DecodeRequest parses a MsgReplicate frame body (after the message byte).
func DecodeRequest(b []byte) (Request, error) {
	var req Request
	var err error
	if req.StrOff, b, err = uvarint(b); err != nil {
		return req, fmt.Errorf("replica: bad replicate request")
	}
	if req.TxnOff, b, err = uvarint(b); err != nil {
		return req, fmt.Errorf("replica: bad replicate request")
	}
	var epoch int64
	if epoch, b, err = uvarint(b); err != nil {
		return req, fmt.Errorf("replica: bad replicate request")
	}
	req.Epoch = uint64(epoch)
	if req.StrTailLen, b, err = uvarint(b); err != nil {
		return req, fmt.Errorf("replica: bad replicate request")
	}
	if len(b) < 4 {
		return req, fmt.Errorf("replica: bad replicate request")
	}
	req.StrTailCRC = binary.LittleEndian.Uint32(b)
	b = b[4:]
	if req.TxnTailLen, b, err = uvarint(b); err != nil {
		return req, fmt.Errorf("replica: bad replicate request")
	}
	if len(b) < 4 {
		return req, fmt.Errorf("replica: bad replicate request")
	}
	req.TxnTailCRC = binary.LittleEndian.Uint32(b)
	return req, nil
}

// EncodeShipment encodes a MsgRepBatch frame.
func EncodeShipment(sh *Shipment) []byte {
	n := 32 + len(sh.Strings)
	for _, f := range sh.Frames {
		n += len(f) + 12
	}
	b := make([]byte, 0, n)
	b = append(b, bolt.MsgRepBatch)
	b = binary.AppendUvarint(b, sh.Epoch)
	b = binary.AppendUvarint(b, uint64(sh.StrOff))
	b = binary.AppendUvarint(b, uint64(len(sh.Strings)))
	b = append(b, sh.Strings...)
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(sh.Strings))
	b = binary.AppendUvarint(b, uint64(sh.TxnOff))
	b = binary.AppendUvarint(b, uint64(sh.NextTxn))
	b = binary.AppendUvarint(b, uint64(sh.StrDurable))
	b = binary.AppendUvarint(b, uint64(sh.TxnDurable))
	b = binary.AppendUvarint(b, uint64(sh.LatestTS))
	b = binary.AppendUvarint(b, uint64(len(sh.Frames)))
	for _, f := range sh.Frames {
		b = binary.AppendUvarint(b, uint64(len(f)))
		b = append(b, f...)
		b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(f))
	}
	return b
}

// ErrCRC marks a checksum mismatch in a decoded shipment — divergence, not
// a retryable transport hiccup.
var ErrCRC = fmt.Errorf("replica: shipment checksum mismatch")

func uvarint(b []byte) (int64, []byte, error) {
	x, w := binary.Uvarint(b)
	if w <= 0 {
		return 0, nil, fmt.Errorf("replica: truncated shipment frame")
	}
	return int64(x), b[w:], nil
}

// DecodeShipment parses and CRC-verifies a MsgRepBatch frame body (after
// the message byte). A checksum mismatch returns an error wrapping ErrCRC.
func DecodeShipment(b []byte) (*Shipment, error) {
	sh := &Shipment{}
	var err error
	var epoch int64
	if epoch, b, err = uvarint(b); err != nil {
		return nil, err
	}
	sh.Epoch = uint64(epoch)
	if sh.StrOff, b, err = uvarint(b); err != nil {
		return nil, err
	}
	slen, b, err := uvarint(b)
	if err != nil {
		return nil, err
	}
	if int64(len(b)) < slen+4 {
		return nil, fmt.Errorf("replica: truncated shipment strings")
	}
	sh.Strings = append([]byte(nil), b[:slen]...)
	b = b[slen:]
	if crc32.ChecksumIEEE(sh.Strings) != binary.LittleEndian.Uint32(b) {
		return nil, fmt.Errorf("%w (strings at %d)", ErrCRC, sh.StrOff)
	}
	b = b[4:]
	if sh.TxnOff, b, err = uvarint(b); err != nil {
		return nil, err
	}
	if sh.NextTxn, b, err = uvarint(b); err != nil {
		return nil, err
	}
	if sh.StrDurable, b, err = uvarint(b); err != nil {
		return nil, err
	}
	if sh.TxnDurable, b, err = uvarint(b); err != nil {
		return nil, err
	}
	var ts int64
	if ts, b, err = uvarint(b); err != nil {
		return nil, err
	}
	sh.LatestTS = model.Timestamp(ts)
	nf, b, err := uvarint(b)
	if err != nil {
		return nil, err
	}
	for i := int64(0); i < nf; i++ {
		flen, rest, err := uvarint(b)
		if err != nil {
			return nil, err
		}
		b = rest
		if int64(len(b)) < flen+4 {
			return nil, fmt.Errorf("replica: truncated shipment frame %d", i)
		}
		f := append([]byte(nil), b[:flen]...)
		b = b[flen:]
		if crc32.ChecksumIEEE(f) != binary.LittleEndian.Uint32(b) {
			return nil, fmt.Errorf("%w (frame %d)", ErrCRC, i)
		}
		b = b[4:]
		sh.Frames = append(sh.Frames, f)
	}
	return sh, nil
}

// EncodeHeartbeat encodes a MsgRepHeartbeat frame.
func EncodeHeartbeat(hb Heartbeat) []byte {
	b := []byte{bolt.MsgRepHeartbeat}
	b = binary.AppendUvarint(b, hb.Epoch)
	b = binary.AppendUvarint(b, uint64(hb.StrDurable))
	b = binary.AppendUvarint(b, uint64(hb.TxnDurable))
	return binary.AppendUvarint(b, uint64(hb.LatestTS))
}

// DecodeHeartbeat parses a MsgRepHeartbeat frame body.
func DecodeHeartbeat(b []byte) (Heartbeat, error) {
	var hb Heartbeat
	var err error
	var epoch int64
	if epoch, b, err = uvarint(b); err != nil {
		return hb, err
	}
	hb.Epoch = uint64(epoch)
	if hb.StrDurable, b, err = uvarint(b); err != nil {
		return hb, err
	}
	if hb.TxnDurable, b, err = uvarint(b); err != nil {
		return hb, err
	}
	ts, _, err := uvarint(b)
	if err != nil {
		return hb, err
	}
	hb.LatestTS = model.Timestamp(ts)
	return hb, nil
}
