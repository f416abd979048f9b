package hostdb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"aion/internal/vfs"
)

// This file is the fencing layer beneath failover (ROADMAP item 2's
// promotion follow-up). A cluster-wide monotonic EPOCH names the current
// primary's reign. Every node persists the highest epoch it has observed;
// promotion advances it, and a primary that sees a higher epoch than its
// own — proof that the cluster moved on without it — demotes itself to
// sticky read-only (fenced) before it can accept another write. Because
// the epoch is persisted before the role flips, a fenced primary stays
// fenced across restarts: the divergent suffix it may hold can be
// inspected, but never extended or re-served as authoritative.

// Role is a node's current write-authority state.
type Role int32

const (
	// RolePrimary accepts local commits.
	RolePrimary Role = iota
	// RoleReplica rejects local commits (ErrReplicaReadOnly) and ingests
	// shipments from its primary.
	RoleReplica
	// RoleFenced is a demoted ex-primary: sticky read-only. It rejects
	// local commits (ErrFenced) AND shipments — its log may hold a
	// divergent suffix, so appending the new timeline's bytes to it would
	// corrupt the byte-identical-prefix invariant. Rejoining requires a
	// fresh replica resync.
	RoleFenced
)

// String names the role for status output and errors.
func (r Role) String() string {
	switch r {
	case RolePrimary:
		return "primary"
	case RoleReplica:
		return "replica"
	case RoleFenced:
		return "fenced"
	}
	return "unknown"
}

// ErrFenced is returned when a transaction tries to commit on a demoted
// ex-primary. Unlike ErrReplicaReadOnly this is sticky: the node observed
// a higher epoch and must never accept writes again under its old reign.
var ErrFenced = errors.New("hostdb: fenced — a higher epoch was observed, node is read-only")

// ErrStaleEpoch is returned when an operation carries an epoch lower than
// the one this node has durably observed.
var ErrStaleEpoch = errors.New("hostdb: stale epoch")

// epochFileName holds the fencing state: magic, epoch, persisted role.
const epochFileName = "aion.epoch"

const (
	epochMagic   = "AEF1"
	epochFileLen = 4 + 8 + 1 + 4 // magic | epoch | role | crc

	// persisted role byte: which role survives a restart regardless of the
	// Options.Replica flag the process is launched with.
	persistUnset    = 0 // role follows Options.Replica
	persistPromoted = 1 // promoted to primary; overrides Replica at Open
	persistFenced   = 2 // fenced; overrides everything at Open
)

// epochState is the in-memory mirror of the epoch file plus the live role.
type epochState struct {
	mu    sync.Mutex // serializes persist + flip
	epoch atomic.Uint64
	role  atomic.Int32
}

// Epoch returns the highest epoch this node has durably observed.
func (db *DB) Epoch() uint64 { return db.fence.epoch.Load() }

// Role returns the node's current write-authority state.
func (db *DB) Role() Role { return Role(db.fence.role.Load()) }

// Promote turns a replica into the primary of reign epoch. The epoch must
// be strictly above every epoch the node has observed — the caller (the
// PROMOTE admin path) advances it. The new epoch and role are persisted
// BEFORE the role flips, so a crash mid-promotion leaves either the old
// replica or the fully promoted primary, never a writable node whose reign
// could be forgotten. Idempotent for the same epoch.
func (db *DB) Promote(epoch uint64) error {
	db.fence.mu.Lock()
	defer db.fence.mu.Unlock()
	cur := db.fence.epoch.Load()
	switch Role(db.fence.role.Load()) {
	case RoleFenced:
		return fmt.Errorf("%w (epoch %d): fenced node cannot be promoted, resync as a replica first", ErrFenced, cur)
	case RolePrimary:
		if epoch == cur {
			return nil // already promoted at this epoch
		}
		if epoch < cur {
			return fmt.Errorf("%w: promote epoch %d below current %d", ErrStaleEpoch, epoch, cur)
		}
	case RoleReplica:
		if epoch <= cur {
			return fmt.Errorf("%w: promote epoch %d not above observed %d", ErrStaleEpoch, epoch, cur)
		}
	}
	if err := db.persistEpoch(epoch, persistPromoted); err != nil {
		return fmt.Errorf("hostdb: persist promotion: %w", err)
	}
	db.fence.epoch.Store(epoch)
	db.fence.role.Store(int32(RolePrimary))
	return nil
}

// ObserveEpoch folds an epoch seen on the wire (HELLO, shipment, replicate
// request, heartbeat) into the node's state. A higher epoch is adopted
// durably; on a primary that adoption IS the demotion — the node fences
// itself to sticky read-only before returning. Returns the node's epoch
// after observation and whether this call demoted a primary.
func (db *DB) ObserveEpoch(epoch uint64) (uint64, bool, error) {
	if epoch <= db.fence.epoch.Load() {
		return db.fence.epoch.Load(), false, nil
	}
	db.fence.mu.Lock()
	defer db.fence.mu.Unlock()
	cur := db.fence.epoch.Load()
	if epoch <= cur {
		return cur, false, nil
	}
	role := Role(db.fence.role.Load())
	persist := byte(persistUnset)
	demoted := false
	switch role {
	case RolePrimary:
		persist = persistFenced
		demoted = true
	case RoleFenced:
		persist = persistFenced
	}
	if err := db.persistEpoch(epoch, persist); err != nil {
		return cur, false, fmt.Errorf("hostdb: persist observed epoch %d: %w", epoch, err)
	}
	db.fence.epoch.Store(epoch)
	if demoted {
		db.fence.role.Store(int32(RoleFenced))
	}
	return epoch, demoted, nil
}

// persistEpoch writes the epoch file atomically (tmp + fsync + rename +
// dir fsync). Callers hold fence.mu.
func (db *DB) persistEpoch(epoch uint64, role byte) error {
	buf := make([]byte, epochFileLen)
	copy(buf, epochMagic)
	binary.LittleEndian.PutUint64(buf[4:], epoch)
	buf[12] = role
	binary.LittleEndian.PutUint32(buf[13:], crc32.ChecksumIEEE(buf[:13]))
	return vfs.PublishFile(db.fs, filepath.Join(db.opts.Dir, epochFileName), buf)
}

// loadEpoch reads the epoch file, returning zero state when it does not
// exist. A corrupt file is an error: guessing could silently un-fence a
// demoted primary.
func loadEpoch(fs vfs.FS, dir string) (epoch uint64, role byte, err error) {
	path := filepath.Join(dir, epochFileName)
	f, err := fs.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, persistUnset, nil
		}
		return 0, persistUnset, err
	}
	defer vfs.CloseChecked(f, &err)
	buf := make([]byte, epochFileLen)
	if _, rerr := f.ReadAt(buf, 0); rerr != nil {
		return 0, persistUnset, fmt.Errorf("hostdb: epoch file: %w", rerr)
	}
	if string(buf[:4]) != epochMagic {
		return 0, persistUnset, fmt.Errorf("hostdb: epoch file: bad magic %q", buf[:4])
	}
	if crc32.ChecksumIEEE(buf[:13]) != binary.LittleEndian.Uint32(buf[13:]) {
		return 0, persistUnset, errors.New("hostdb: epoch file: checksum mismatch")
	}
	return binary.LittleEndian.Uint64(buf[4:]), buf[12], nil
}

// initFence seeds the epoch state at Open: the persisted role (a promotion
// or fencing that happened in a previous life) overrides the process's
// Replica flag, so a fenced ex-primary restarted with its old primary
// config stays read-only and a promoted follower restarted with its old
// replica config stays writable.
func (db *DB) initFence() error {
	role := RolePrimary
	if db.opts.Replica {
		role = RoleReplica
	}
	epoch, persisted, err := loadEpoch(db.fs, db.opts.Dir)
	if err != nil {
		return err
	}
	db.fence.epoch.Store(epoch)
	switch persisted {
	case persistPromoted:
		role = RolePrimary
	case persistFenced:
		role = RoleFenced
	}
	db.fence.role.Store(int32(role))
	return nil
}
