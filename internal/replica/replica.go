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
//   - A message damaged in flight fails its record's CRC and is a reconnect.
//     A shipment whose offsets, records or commits fail their check at
//     apply is divergence: the follower fail-stops (sticky error, all reads
//     rejected) rather than serve corrupt state.
package replica

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"aion/internal/model"
	"aion/internal/wal"
)

// Shipment is one replication batch: a chunk of raw string-table bytes and
// a run of whole transaction-log records, each tagged with the file offset
// it must land at on the follower, plus the primary's durable extents and
// clock for lag accounting.
type Shipment struct {
	// Epoch is the shipping primary's fencing epoch (see hostdb.Role). A
	// follower adopts a higher epoch and refuses a lower one — a stream
	// from a demoted primary must never extend the new timeline.
	Epoch uint64
	// StrOff is the string-table offset the Strings chunk starts at; it
	// must equal the follower's current string-table size.
	StrOff  int64
	Strings []byte
	// TxnOff is the transaction-log offset Txn starts at; it must equal the
	// follower's current log size. Txn is whole commit records exactly as the
	// primary's log holds them, so TxnOff+len(Txn) is the next resume point.
	TxnOff int64
	Txn    []byte
	// StrDurable/TxnDurable are the primary's durable extents and LatestTS
	// its commit clock when the shipment was built.
	StrDurable int64
	TxnDurable int64
	LatestTS   model.Timestamp
}

// Empty reports whether the shipment carries no bytes (heartbeat-only
// rounds skip it).
func (sh *Shipment) Empty() bool { return len(sh.Strings) == 0 && len(sh.Txn) == 0 }

// Stats is a snapshot of a node's replication counters, filled by either
// role: a Source (registry key "replica.source") its shipping counters, host
// clock and epoch; an Applier ("replica.applier") its apply counters and
// watermark. A promoted node lists both.
type Stats struct {
	BytesShipped  uint64 // string-table and log file bytes handed to the stream, counted before the send
	BytesApplied  uint64 // file bytes verified and applied on a follower
	Heartbeats    uint64 // keepalives sent (source) or received (applier)
	Reconnects    uint64 // follower stream re-establishments after a failed dial or stream
	Watermark     int64  // the highest servable commit: host clock, or replicated watermark
	WatermarkLag  int64  // the primary's clock at the last heartbeat minus the watermark
	Epoch         uint64 // the node's fencing epoch
	FencedStreams uint64 // streams refused or ended because this node is not the primary
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
// Messages ride on Bolt's length-prefixed framing. Each is its message byte
// (bolt.MsgReplicate, MsgRepBatch, MsgRepHeartbeat) followed by one wal record
// (wal.Seal, wal.Cut) holding the fields its fields method lists, in order:
// integers as canonical uvarints, byte runs as a uvarint length and the
// bytes. A decoded Shipment's Strings and Txn alias the message. The wire
// format has no version: a primary and its followers upgrade together.

func (r *Request) fields() []any {
	return []any{&r.StrOff, &r.TxnOff, &r.Epoch, &r.StrTailLen, &r.StrTailCRC, &r.TxnTailLen, &r.TxnTailCRC}
}

func (sh *Shipment) fields() []any {
	return []any{&sh.Epoch, &sh.StrOff, &sh.Strings, &sh.TxnOff, &sh.Txn, &sh.StrDurable, &sh.TxnDurable, &sh.LatestTS}
}

func (hb *Heartbeat) fields() []any {
	return []any{&hb.Epoch, &hb.StrDurable, &hb.TxnDurable, &hb.LatestTS}
}

// ErrCRC marks a message whose record fails its length or checksum check:
// damaged in flight. The follower reconnects and the fresh stream re-ships
// from its durable offsets; nothing has touched its files.
var ErrCRC = errors.New("replica: message checksum mismatch")

// errMalformed is a message whose record passes its check but does not hold
// exactly its fields: a codec mismatch, not damage in flight.
var errMalformed = errors.New("replica: malformed message")

// encode returns msg followed by one record of the values fields point to.
func encode(msg byte, fields []any) []byte {
	b := make([]byte, 1+wal.HeaderSize, 64)
	b[0] = msg
	for _, f := range fields {
		switch v := f.(type) {
		case *[]byte:
			b = append(binary.AppendUvarint(b, uint64(len(*v))), *v...)
		case *int64:
			b = binary.AppendUvarint(b, uint64(*v))
		case *uint64:
			b = binary.AppendUvarint(b, *v)
		case *uint32:
			b = binary.AppendUvarint(b, uint64(*v))
		case *model.Timestamp:
			b = binary.AppendUvarint(b, uint64(*v))
		}
	}
	wal.Seal(b[1:])
	return b
}

// decode checks that b is exactly one record and fills fields from it, the
// inverse of encode: a record that fails its check is ErrCRC, and one that
// does not hold exactly the fields, canonically encoded, is malformed.
func decode(b []byte, fields []any) error {
	rec, rest, err := wal.Cut(b)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrCRC, err)
	}
	for _, f := range fields {
		x, w := binary.Uvarint(rec)
		if w <= 0 || w > 1 && rec[w-1] == 0 {
			return errMalformed
		}
		rec = rec[w:]
		switch v := f.(type) {
		case *[]byte:
			if x > uint64(len(rec)) {
				return errMalformed
			}
			*v, rec = rec[:x], rec[x:]
		case *int64:
			*v = int64(x)
		case *uint64:
			*v = x
		case *uint32:
			if x > math.MaxUint32 {
				return errMalformed
			}
			*v = uint32(x)
		case *model.Timestamp:
			*v = model.Timestamp(x)
		}
	}
	if len(rec) > 0 || len(rest) > 0 {
		return errMalformed
	}
	return nil
}
