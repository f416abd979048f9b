// Package system wires the host database to Aion exactly as Fig 4 shows:
// an after-commit event listener registered with the host feeds every
// committed transaction's changes — already stamped with a valid
// transaction time and guaranteed to yield a consistent LPG — into Aion's
// hybrid temporal store (stage 1), which writes the TimeStore synchronously
// and cascades to the LineageStore in the background (stage 2).
package system

import (
	"fmt"

	"aion/internal/aion"
	"aion/internal/hostdb"
	"aion/internal/model"
	"aion/internal/vfs"
)

// Options configures a combined system.
type Options struct {
	// Dir is the root storage directory (host + temporal stores).
	Dir string
	// Aion tunes the temporal store; Dir is filled in automatically.
	Aion aion.Options
	// DisableTemporal runs the bare host without Aion attached (the
	// baseline for the Fig 9 ingestion-overhead normalization).
	DisableTemporal bool
	// SyncCommits forwards to hostdb: fsync the txn log per commit.
	SyncCommits bool
	// Replica opens the host as a replication follower: local commits are
	// rejected and changes arrive through hostdb.ApplyShipment (fed by
	// internal/replica), which still fires the commit listener so Aion
	// ingests replicated transactions exactly like local ones.
	Replica bool
	// FS is the filesystem both components store on; nil means the real
	// OS filesystem (used by the crash-recovery tests to inject faults).
	FS vfs.FS
}

// System is a host database with Aion attached.
type System struct {
	Host *hostdb.DB
	Aion *aion.DB
}

// Open creates or reopens a combined system and registers the event
// listener.
func Open(opts Options) (*System, error) {
	host, err := hostdb.Open(hostdb.Options{Dir: opts.Dir, SyncCommits: opts.SyncCommits,
		Replica: opts.Replica, FS: opts.FS})
	if err != nil {
		return nil, err
	}
	s := &System{Host: host}
	if opts.DisableTemporal {
		return s, nil
	}
	aopts := opts.Aion
	if aopts.FS == nil {
		aopts.FS = opts.FS
	}
	if aopts.Dir == "" && opts.Dir != "" {
		aopts.Dir = opts.Dir + "/aion"
	}
	// The host's committed graph is the one resident current graph: the
	// TimeStore applies nothing and borrows this one where it needs a graph.
	aopts.Host = host.Committed
	s.Aion, err = aion.Open(aopts)
	if err != nil {
		host.Close()
		return nil, err
	}
	if err := s.reconcile(); err != nil {
		s.Aion.Close()
		host.Close()
		return nil, fmt.Errorf("system: reconcile host and temporal store: %w", err)
	}
	host.OnCommit(func(_ model.Timestamp, us []model.Update) {
		// The listener runs in the after-commit phase and has nobody to
		// return an error to: Aion keeps the first failed ingest (Err reports
		// it, every later batch is refused with it), so nothing is ever fed
		// on top of a hole.
		_ = s.Aion.ApplyBatch(us)
	})
	return s, nil
}

// reconcile replays onto Aion every transaction the host made durable but
// Aion had not yet synced when the process stopped. The host's transaction
// log is the source of truth: Flush syncs it before the temporal store, so
// after a crash the host is always at or ahead of Aion. A commit reaches the
// TimeStore's log as one frame, so Aion holds each commit whole or not at all.
func (s *System) reconcile() error {
	return s.Host.ReplayCommitted(s.Aion.LatestTimestamp(), func(_ model.Timestamp, us []model.Update) error {
		return s.Aion.ApplyBatch(us)
	})
}

// Flush makes the whole system durable: the host first, then Aion, so a
// crash between the two leaves the host ahead — the state reconcile is
// built to repair. The reverse order could strand Aion with a commit the
// host lost.
func (s *System) Flush() error {
	if err := s.Host.Flush(); err != nil {
		return err
	}
	if s.Aion != nil {
		return s.Aion.Flush()
	}
	return nil
}

// Close shuts down both components.
func (s *System) Close() error {
	var firstErr error
	if s.Aion != nil {
		if err := s.Aion.Close(); err != nil {
			firstErr = err
		}
	}
	if err := s.Host.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
