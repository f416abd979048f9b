package hostdb

import (
	"errors"
	"fmt"
	"hash/crc32"

	"aion/internal/model"
	"aion/internal/wal"
)

// This file is the host database's replication surface. The unit of
// replication is the durable byte: a primary exposes the fsync-covered
// prefixes of its string table and transaction log, and a follower appends
// those bytes verbatim to its own files. Because both
// files are append-only and the records are replayed through the same
// recovery machinery Open uses, a follower's on-disk state is always a
// byte-identical prefix of the primary's — positional string refs resolve
// without translation, and divergence is detectable by simple offset/CRC
// comparison.

// ErrReplicaReadOnly is returned when a transaction tries to commit on a
// database opened with Options.Replica. Replicas accept changes only from
// their primary's log stream.
var ErrReplicaReadOnly = errors.New("hostdb: replica is read-only")

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

// TxnBytes reads durable transaction-log records starting at byte offset
// from and ending below byte offset to — the transaction-log extent the
// caller captured with DurableExtents BEFORE it read the strings it ships
// alongside: a record that became durable after that capture may reference
// strings the caller's chunk does not hold. The records come back whole and
// exactly as the log holds them, headers included, up to roughly maxBytes;
// the next call resumes at from+len. At least one record is returned when any
// is available, so a caller always makes progress even when a single commit
// exceeds maxBytes.
func (db *DB) TxnBytes(from, to int64, maxBytes int) ([]byte, error) {
	durable := min(to, db.txnLog.SyncedSize())
	if from >= durable {
		return nil, nil
	}
	end := from
	_, err := db.txnLog.ScanRange(from, durable, 0, func(fs []wal.Frame) bool {
		for _, f := range fs {
			next := f.Off + wal.HeaderSize + int64(len(f.Payload))
			if end > from && next-from > int64(maxBytes) {
				return false
			}
			end = next
		}
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("hostdb: txn records at %d: %w", from, err)
	}
	return db.txnLog.ReadRange(from, end)
}

// ApplyShipment ingests one replication shipment on a follower: a chunk of
// raw string-table bytes (possibly empty) and a run of whole transaction-log
// records, exactly as they appear in the primary's files.
//
// Order of operations is the crash-safety contract:
//
//  1. append the string bytes (log records hold positional refs into them);
//  2. cut (wal.Cut checks its CRC), decode and check EVERY record before
//     touching the log: timestamps strictly increasing from the clock, and
//     every update admitted by the check a commit runs (pending), over the
//     graph with the shipment's earlier updates applied — so a corrupt,
//     non-monotonic or inapplicable shipment is rejected wholesale and
//     leaves the log, the clock and the graph as they were;
//  3. append the records' payloads to the follower's own transaction log;
//  4. fsync strings, then the log — durability BEFORE visibility, so the
//     watermark this call advances only ever covers bytes that survive a
//     crash;
//  5. apply the updates to the in-memory graph, which (2) makes
//     infallible, and fire commit listeners (the follower's Aion instance
//     ingests here), in commit order.
//
// A crash between (3) and (4) is repaired by the WAL's tail repair on
// reopen; a crash after (4) is replayed by Open's recovery scan. Either
// way the follower reconverges by resuming from its durable extents.
// Returns the follower's clock (== highest applied commit timestamp).
func (db *DB) ApplyShipment(strChunk, txn []byte) (model.Timestamp, error) {
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
	if len(txn) == 0 {
		if len(strChunk) > 0 {
			if err := db.strings.Sync(); err != nil {
				return 0, err
			}
			db.stats.fsyncs.Add(1)
		}
		return db.Clock(), nil
	}

	// Check the whole batch up front: decodable, non-empty, commit timestamps
	// strictly increasing from the follower's clock, and applicable in order.
	// A failure here is divergence — the caller must fail stop, not skip.
	// Only ApplyShipment writes a replica's graph (a promotion stops the
	// stream first), so the graph checked is the one applied to below.
	clock := db.Clock()
	var payloads [][]byte
	var commits [][]model.Update
	p := newPending(0)
	for i, rest := 0, txn; len(rest) > 0; i++ {
		payload, next, err := wal.Cut(rest)
		if err != nil {
			return 0, fmt.Errorf("hostdb: shipment record %d: %w", i, err)
		}
		us, err := db.decodeCommit(nil, payload)
		if err != nil {
			return 0, fmt.Errorf("hostdb: shipment record %d: %w", i, err)
		}
		if len(us) == 0 {
			return 0, fmt.Errorf("hostdb: shipment record %d: empty commit", i)
		}
		if us[0].TS <= clock {
			return 0, fmt.Errorf("hostdb: shipment record %d: commit ts %d not above clock %d", i, us[0].TS, clock)
		}
		db.mu.RLock()
		err = p.check(db.current, us...)
		db.mu.RUnlock()
		if err != nil {
			return 0, fmt.Errorf("hostdb: shipment record %d: %w", i, err)
		}
		clock, rest = us[0].TS, next
		payloads, commits = append(payloads, payload), append(commits, us)
	}

	// Push the shipped string bytes to the OS before the log records that
	// reference them: the fsync pair below orders durability under power
	// loss, and this flush keeps the same ordering when only the process dies
	// (completed writes survive, buffers do not).
	if err := db.strings.Flush(); err != nil {
		return 0, err
	}
	if _, err := db.txnLog.AppendBatch(payloads); err != nil {
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
	db.idMu.Lock()
	for _, us := range commits {
		for _, u := range us {
			db.apply(u)
			db.advance(u)
		}
	}
	db.idMu.Unlock()
	db.mu.Unlock()
	db.publish(commits)
	return clock, nil
}
