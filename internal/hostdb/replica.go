package hostdb

import (
	"errors"
	"fmt"
	"hash/crc32"

	"aion/internal/model"
	"aion/internal/wal"
)

// This file is the host database's replication surface (ROADMAP item 2).
// The unit of replication is the durable byte: a primary exposes the
// fsync-covered prefixes of its string table and transaction log, and a
// follower appends those bytes verbatim to its own files. Because both
// files are append-only and the records are replayed through the same
// recovery machinery Open uses, a follower's on-disk state is always a
// byte-identical prefix of the primary's — positional string refs resolve
// without translation, and divergence is detectable by simple offset/CRC
// comparison.

// ErrReplicaReadOnly is returned when a transaction tries to commit on a
// database opened with Options.Replica. Replicas accept changes only from
// their primary's log stream.
var ErrReplicaReadOnly = errors.New("hostdb: replica is read-only")

// IsReplica reports whether this database was opened as a replication
// follower.
func (db *DB) IsReplica() bool { return db.opts.Replica }

// DurableExtents returns the fsync-covered sizes of the string table and
// transaction log — the byte watermarks replication may ship up to.
//
// The transaction-log extent is captured FIRST: the commit path syncs
// strings before the log, so any string ref held by a record below the
// returned txn extent is guaranteed to lie below a strings extent captured
// afterwards. Capturing in the other order could expose a log record whose
// refs point past the shipped strings prefix.
func (db *DB) DurableExtents() (strBytes, txnBytes int64) {
	txnBytes = db.txnLog.SyncedSize()
	return db.strings.SyncedSize(), txnBytes
}

// ReadStringsRaw returns up to max bytes of whole string-table records
// starting at byte offset off, bounded by the durable extent.
func (db *DB) ReadStringsRaw(off int64, max int) ([]byte, error) {
	return db.strings.ReadRaw(off, max)
}

// TailCRC summarizes the last bytes below the given durable offsets of the
// string table and transaction log: up to maxTail bytes each, CRC32'd.
// A follower sends this digest with its replicate request; the primary
// recomputes the same ranges over its own files (which the follower's
// files must be a byte prefix of) and a mismatch proves the histories
// diverged even though the offsets line up — the same-length-different-
// suffix case a demoted primary presents when it tries to rejoin.
func (db *DB) TailCRC(strTo, txnTo, strMax, txnMax int64) (strLen, txnLen int64, strCRC, txnCRC uint32, err error) {
	strLen = strTo
	if strLen > strMax {
		strLen = strMax
	}
	if strLen > 0 {
		b, rerr := db.strings.ReadRange(strTo-strLen, strTo)
		if rerr != nil {
			return 0, 0, 0, 0, rerr
		}
		strCRC = crc32.ChecksumIEEE(b)
	}
	txnLen = txnTo
	if txnLen > txnMax {
		txnLen = txnMax
	}
	if txnLen > 0 {
		b, rerr := db.txnLog.ReadRange(txnTo-txnLen, txnTo)
		if rerr != nil {
			return 0, 0, 0, 0, rerr
		}
		txnCRC = crc32.ChecksumIEEE(b)
	}
	return strLen, txnLen, strCRC, txnCRC, nil
}

// TxnFrames reads durable transaction-log records starting at byte offset
// from and ending below byte offset to — the transaction-log extent the
// caller captured with DurableExtents BEFORE it read the strings it ships
// alongside: a record that became durable after that capture may reference
// strings the caller's chunk does not hold. Up to roughly maxBytes of payload
// are returned, as copied record payloads plus the offset the next call
// should resume from. At least one record is returned when any is available,
// so a caller always makes progress even when a single commit exceeds
// maxBytes.
func (db *DB) TxnFrames(from, to int64, maxBytes int) (frames [][]byte, next int64, err error) {
	next = from
	durable := min(to, db.txnLog.SyncedSize())
	if from >= durable {
		return nil, next, nil
	}
	total := 0
	_, err = db.txnLog.ScanBatch(from, 0, func(fs []wal.Frame) bool {
		for _, f := range fs {
			if f.Off >= durable {
				return false
			}
			if total > 0 && total+len(f.Payload) > maxBytes {
				return false
			}
			frames = append(frames, append([]byte(nil), f.Payload...))
			total += len(f.Payload)
			// 8 bytes of record header (length + CRC) precede the payload.
			next = f.Off + 8 + int64(len(f.Payload))
		}
		return true
	})
	if err != nil {
		return nil, from, fmt.Errorf("hostdb: txn frames at %d: %w", from, err)
	}
	return frames, next, nil
}

// ApplyShipment ingests one replication shipment on a follower: a chunk of
// raw string-table bytes (possibly empty) and a batch of transaction-log
// record payloads, exactly as they appear in the primary's files.
//
// Order of operations is the crash-safety contract:
//
//  1. append the string bytes (log records hold positional refs into them);
//  2. decode and validate EVERY frame before touching the log, so a
//     corrupt or non-monotonic shipment is rejected wholesale;
//  3. append the frames to the follower's own transaction log;
//  4. fsync strings, then the log — durability BEFORE visibility, so the
//     watermark this call advances only ever covers bytes that survive a
//     crash;
//  5. apply the updates to the in-memory graph and fire commit listeners
//     (the follower's Aion instance ingests here), in commit order.
//
// A crash between (3) and (4) is repaired by the WAL's tail repair on
// reopen; a crash after (4) is replayed by Open's recovery scan. Either
// way the follower reconverges by resuming from its durable extents.
// Returns the follower's clock (== highest applied commit timestamp).
func (db *DB) ApplyShipment(strChunk []byte, frames [][]byte) (model.Timestamp, error) {
	// Shipments are accepted only in the LIVE replica role: a promoted
	// follower is a primary now (its log is the new timeline's authority),
	// and a fenced ex-primary may hold a divergent suffix that shipped
	// bytes must never be appended after.
	if r := db.Role(); r != RoleReplica {
		return 0, fmt.Errorf("hostdb: ApplyShipment on %s database", r)
	}
	if len(strChunk) > 0 {
		if err := db.strings.AppendRaw(strChunk); err != nil {
			return 0, fmt.Errorf("hostdb: apply shipment strings: %w", err)
		}
	}
	if len(frames) == 0 {
		if len(strChunk) > 0 {
			if err := db.strings.Sync(); err != nil {
				return 0, err
			}
			db.stats.fsyncs.Add(1)
		}
		return db.Clock(), nil
	}

	// Validate the whole batch up front: decodable, non-empty, and commit
	// timestamps strictly increasing from the follower's clock. A failure
	// here is divergence — the caller must fail stop, not skip.
	clock := db.Clock()
	commits := make([][]model.Update, 0, len(frames))
	for i, payload := range frames {
		us, err := db.decodeCommit(payload)
		if err != nil {
			return 0, fmt.Errorf("hostdb: shipment frame %d: %w", i, err)
		}
		if len(us) == 0 {
			return 0, fmt.Errorf("hostdb: shipment frame %d: empty commit", i)
		}
		if us[0].TS <= clock {
			return 0, fmt.Errorf("hostdb: shipment frame %d: commit ts %d not above clock %d", i, us[0].TS, clock)
		}
		clock = us[0].TS
		commits = append(commits, us)
	}

	// Push the shipped string bytes to the OS before the log records that
	// reference them: the fsync pair below orders durability under power
	// loss, and this flush keeps the same ordering when only the process dies
	// (completed writes survive, buffers do not).
	if err := db.strings.Flush(); err != nil {
		return 0, err
	}
	if _, err := db.txnLog.AppendBatch(frames); err != nil {
		return 0, fmt.Errorf("hostdb: apply shipment append: %w", err)
	}
	if err := db.strings.Sync(); err != nil {
		return 0, err
	}
	db.stats.fsyncs.Add(1)
	if err := db.txnLog.Sync(); err != nil {
		return 0, err
	}
	db.stats.fsyncs.Add(1)

	db.mu.Lock()
	for _, us := range commits {
		for _, u := range us {
			if err := db.current.Apply(u); err != nil {
				// The primary applied this exact update sequence; failure
				// here means the follower's graph diverged. Fail stop.
				db.mu.Unlock()
				return 0, fmt.Errorf("hostdb: shipment apply ts %d: %w", u.TS, err)
			}
			db.updates++
			if u.TS > db.clock {
				db.clock = u.TS
			}
		}
	}
	db.mu.Unlock()
	db.idMu.Lock()
	for _, us := range commits {
		for _, u := range us {
			if u.Kind.IsNodeOp() && u.NodeID >= db.nextNode {
				db.nextNode = u.NodeID + 1
			}
			if !u.Kind.IsNodeOp() && u.RelID >= db.nextRel {
				db.nextRel = u.RelID + 1
			}
		}
	}
	db.idMu.Unlock()
	for _, us := range commits {
		for _, u := range us {
			db.accountRecords(u)
		}
	}

	db.listenerMu.RLock()
	listeners := db.listeners
	db.listenerMu.RUnlock()
	for _, us := range commits {
		for _, l := range listeners {
			l(us[0].TS, us)
		}
	}
	db.stats.commits.Add(int64(len(commits)))
	db.stats.batches.Add(1)
	return clock, nil
}
