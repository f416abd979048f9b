// Package aion implements the Aion hybrid temporal graph store (Secs 4-5):
// a TimeStore for global queries, a LineageStore for point and small
// subgraph queries, the GraphStore snapshot cache, a planner that chooses a
// store from estimated cardinality, and the temporal graph API of Table 1.
//
// On the write path Aion updates only the TimeStore synchronously;
// background workers cascade outstanding updates to the LineageStore off
// the transaction critical path (Sec 5.1). The LineageStore is the one store
// that answers the entity reads (GetNode, GetRelationship, GetRelationships,
// and Expand when the planner picks it): a read that finds the cascade behind
// its timestamp waits for it. This departs from Sec 5.1, where the TimeStore
// serves such a read instead: a materialised graph knows neither when the
// version it holds began nor when it ended, so it cannot report the
// validity intervals the LineageStore reports.
package aion

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"

	"aion/internal/enc"
	"aion/internal/lineagestore"
	"aion/internal/memgraph"
	"aion/internal/model"
	"aion/internal/strstore"
	"aion/internal/timestore"
	"aion/internal/vfs"
)

// SyncMode selects which temporal stores a write transaction updates
// synchronously (the Fig 9 ingestion-overhead configurations).
type SyncMode int

const (
	// SyncHybrid updates the TimeStore synchronously and the LineageStore
	// asynchronously in the background — Aion's production mode (Sec 5.1).
	SyncHybrid SyncMode = iota
	// SyncBoth updates both stores on the commit path (the "TS+LS" bar).
	SyncBoth
	// SyncTimeStoreOnly maintains only the TimeStore.
	SyncTimeStoreOnly
	// SyncLineageOnly maintains only the LineageStore. Its watermark survives
	// a clean Close (the checkpoint); after an unclean stop there is no log to
	// rebuild from and the store reopens at -1 over whatever its indexes hold.
	SyncLineageOnly
)

// String returns the mode name as used in the Fig 9 legend.
func (m SyncMode) String() string {
	switch m {
	case SyncHybrid:
		return "Hybrid"
	case SyncBoth:
		return "TS+LS"
	case SyncTimeStoreOnly:
		return "TimeStore"
	case SyncLineageOnly:
		return "LineageStore"
	}
	return "?"
}

// SelectivityThreshold is the planner heuristic of Sec 5.1: if a query is
// estimated to access less than this fraction of the graph it runs on the
// LineageStore, otherwise Aion constructs a snapshot with the TimeStore.
const SelectivityThreshold = 0.30

// Options configures an Aion store.
type Options struct {
	// Dir is the root directory; subdirectories hold each store. Empty
	// means a fresh temporary directory.
	Dir string
	// Mode selects the write-path synchronization (default SyncHybrid).
	Mode SyncMode
	// ChainThreshold is LineageStore's delta materialization threshold.
	ChainThreshold int
	// SnapshotEveryOps is the TimeStore's snapshot policy: a snapshot every
	// this many updates (0: timestore.DefaultSnapshotEveryOps; < 0: none).
	SnapshotEveryOps int
	// PartitionEvery seals the TimeStore's active partition after this
	// many updates (<= 0 disables partitioning: one monolithic log).
	PartitionEvery int
	// DeltaChainLength bounds the differential-snapshot run between full
	// materializations in every TimeStore chain — the policy snapshots of
	// the active partition and each sealed partition's compacted chain (0:
	// timestore default; < 0: full snapshots only).
	DeltaChainLength int
	// GraphStoreBytes is the snapshot cache budget.
	GraphStoreBytes int64
	// ParallelIO is the worker count of the TimeStore's snapshot
	// (de)serialization and replay pipelines (<= 0: GOMAXPROCS; 1: inline).
	ParallelIO int
	// FS is the filesystem every store lives on; nil means the real OS
	// filesystem (used by the crash-recovery tests to inject faults).
	FS vfs.FS
	// Host is the attached host database's Committed method, filled in by
	// internal/system and passed to the TimeStore (timestore.Options.Host),
	// which then borrows the host's graph instead of keeping its own; not a
	// setting.
	Host func() (*memgraph.Graph, model.Timestamp, uint64)
}

// DB is an Aion hybrid temporal store instance.
type DB struct {
	opts    Options
	strings *strstore.Store
	codec   *enc.Codec
	ts      *timestore.Store
	ls      *lineagestore.Store
	stats   GraphStats

	queue chan []model.Update
	wg    sync.WaitGroup
	// queued and cascaded count the batches handed to the cascade worker and
	// those it has finished; moved is broadcast after each one.
	queued, cascaded atomic.Uint64
	moved            signal
	// reading is held shared by every LineageStore read and exclusively by
	// Close while it closes the stores.
	reading sync.RWMutex
	// failed is the first error that left a hole in what the stores hold: a
	// failed background cascade or a failed synchronous TimeStore append.
	failed  atomic.Pointer[error]
	closed  atomic.Bool
	decided struct { // planner decision counters, for tests and ablation
		lineage atomic.Int64
		time    atomic.Int64
	}
}

// Open creates or reopens an Aion store.
func Open(opts Options) (*DB, error) {
	if opts.Dir == "" {
		if opts.FS != nil {
			opts.Dir = "aion"
		} else {
			dir, err := vfs.MkdirTemp("", "aion-*")
			if err != nil {
				return nil, err
			}
			opts.Dir = dir
		}
	}
	fs := vfs.OrOS(opts.FS)
	for _, sub := range []string{"timestore", "lineage"} {
		if err := vfs.MkdirAll(fs, filepath.Join(opts.Dir, sub)); err != nil {
			return nil, err
		}
	}
	strings, err := strstore.OpenFS(fs, filepath.Join(opts.Dir, "strings.db"))
	if err != nil {
		return nil, err
	}
	db := &DB{opts: opts, strings: strings, codec: enc.NewCodec(strings)}
	if err := db.openStores(fs); err != nil {
		return nil, errors.Join(err, db.closeStores())
	}
	if opts.Mode == SyncHybrid {
		db.queue = make(chan []model.Update, cascadeQueueDepth)
		db.wg.Add(1)
		go db.cascadeWorker()
	}
	return db, nil
}

// openStores opens the temporal stores over db.strings and brings the
// LineageStore to the TimeStore's end; Open closes what an error leaves open.
func (db *DB) openStores(fs vfs.FS) (err error) {
	opts := db.opts
	if opts.Mode != SyncLineageOnly {
		db.ts, err = timestore.Open(db.codec, timestore.Options{
			Dir:              filepath.Join(opts.Dir, "timestore"),
			SnapshotEveryOps: opts.SnapshotEveryOps,
			PartitionEvery:   opts.PartitionEvery,
			DeltaChainLength: opts.DeltaChainLength,
			GraphStoreBytes:  opts.GraphStoreBytes,
			ParallelIO:       opts.ParallelIO,
			FS:               opts.FS,
			Host:             opts.Host,
		})
		if err != nil {
			return err
		}
	}
	if opts.Mode != SyncTimeStoreOnly {
		db.ls, err = lineagestore.Open(db.codec, lineagestore.Options{
			Dir:            filepath.Join(opts.Dir, "lineage"),
			ChainThreshold: opts.ChainThreshold,
			FS:             opts.FS,
		})
		if err != nil {
			return err
		}
	}
	if db.ts != nil {
		latest, err := db.ts.Latest()
		if err != nil {
			return err
		}
		db.stats.nodes.Store(int64(latest.NodeCount()))
		db.stats.rels.Store(int64(latest.RelCount()))
	}
	if db.ts != nil && db.ls != nil {
		// The TimeStore log is the authoritative copy: the LineageStore
		// resumes from its clean-shutdown checkpoint when the disk holds one,
		// and is otherwise wiped and replayed from the whole log (after a crash
		// its index files may lag or lead the durable log undetectably).
		end := db.ts.LatestTimestamp() + 1
		err := db.ls.CatchUp(db.ts.Stats().Updates, func(from model.Timestamp, fn func(model.Update) bool) error {
			return db.ts.ScanDiff(from, end, fn)
		})
		if err != nil {
			return err
		}
	}
	// Make strings.db's directory entry durable: its content syncs would
	// otherwise be futile — a file whose name never reached the directory
	// vanishes entirely at a crash, stranding the (surviving) TimeStore log
	// with dangling string refs.
	return fs.SyncDir(opts.Dir)
}

// cascadeQueueDepth bounds the batches queued for the cascade worker: deep
// enough that a burst of commits does not wait for the LineageStore, bounded
// so a cascade that falls behind for good makes commits wait rather than
// holding every batch since in memory.
const cascadeQueueDepth = 1024

// cascadeWorker applies queued update batches to the LineageStore in the
// background (stage 2 of Sec 5.1).
func (db *DB) cascadeWorker() {
	defer db.wg.Done()
	for batch := range db.queue {
		if len(batch) > 0 {
			if err := db.ls.ApplyBatch(batch); err != nil {
				db.fail(err)
			}
		}
		db.cascaded.Add(1)
		db.moved.broadcast()
	}
}

// signal wakes every goroutine waiting on it: the channel wait returns is
// closed by the next broadcast.
type signal struct {
	mu sync.Mutex
	ch chan struct{}
}

func (s *signal) wait() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ch == nil {
		s.ch = make(chan struct{})
	}
	return s.ch
}

func (s *signal) broadcast() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ch != nil {
		close(s.ch)
		s.ch = nil
	}
}

// awaitCascade returns once the LineageStore holds every update at or before
// ts that an ApplyBatch has returned: at once outside hybrid mode or when the
// cascade has nothing pending, else when it has applied an update past ts.
// After a sticky failure only a read at or below what the cascade applied is
// served; a later one gets Err.
func (db *DB) awaitCascade(ctx context.Context, ts model.Timestamp) error {
	var moved <-chan struct{}
	for {
		if err := db.Err(); err != nil {
			if ts <= db.ls.AppliedThrough() {
				return nil
			}
			return err
		}
		if db.cascaded.Load() == db.queued.Load() || db.ls.AppliedThrough() > ts {
			return nil
		}
		if moved == nil {
			moved = db.moved.wait() // and check again: a batch finished from now on closes it
			continue
		}
		select {
		case <-moved:
			moved = nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Err returns the first failure that stopped ingestion: an asynchronous
// cascade error or a failed synchronous TimeStore append. Either leaves a
// hole in what the stores hold, so it is sticky — every later ApplyBatch
// fails with it — until the store is reopened and recovers from its logs.
func (db *DB) Err() error {
	if p := db.failed.Load(); p != nil {
		return *p
	}
	return nil
}

// fail records err as the store's sticky failure unless one is recorded.
func (db *DB) fail(err error) { db.failed.CompareAndSwap(nil, &err) }

// appendTimeStore is the synchronous write of every mode with a TimeStore. A
// failure past validation (a batch rejected for its timestamps never reaches
// the log) means this batch is missing from the history, and anything
// appended after it would sit on top of the hole.
func (db *DB) appendTimeStore(us []model.Update) error {
	err := db.ts.AppendBatch(us)
	if err != nil && !errors.Is(err, model.ErrNonMonotonic) {
		db.fail(err)
	}
	return err
}

// Apply ingests one committed graph update.
func (db *DB) Apply(u model.Update) error { return db.ApplyBatch([]model.Update{u}) }

// ApplyBatch ingests a batch of committed updates (one transaction or an
// ingestion batch). Per Sec 5.1 only the TimeStore is written on the
// caller's path in hybrid mode.
func (db *DB) ApplyBatch(us []model.Update) error {
	if db.closed.Load() {
		return errClosed
	}
	if err := db.Err(); err != nil {
		return fmt.Errorf("aion: ingestion stopped by an earlier failure: %w", err)
	}
	if db.ts != nil {
		if err := db.appendTimeStore(us); err != nil {
			return err
		}
	}
	// Only now: a batch the TimeStore rejected for its timestamps reached no
	// store, and must not move the planner's counters either.
	db.stats.apply(us)
	switch db.opts.Mode {
	case SyncHybrid:
		db.queued.Add(1)
		db.queue <- append([]model.Update(nil), us...)
	case SyncBoth, SyncLineageOnly:
		return db.ls.ApplyBatch(us)
	}
	return nil
}

// WaitSync blocks until the LineageStore holds every update an ApplyBatch
// has returned — the wait an entity read makes, at the latest timestamp —
// and returns Err.
func (db *DB) WaitSync() error {
	if db.ls != nil {
		if err := db.awaitCascade(context.Background(), db.LatestTimestamp()); err != nil {
			return err
		}
	}
	return db.Err()
}

// Stats returns the planner's graph statistics.
func (db *DB) Stats() *GraphStats { return &db.stats }

// TimeStore exposes the underlying TimeStore (nil in lineage-only mode).
func (db *DB) TimeStore() *timestore.Store { return db.ts }

// LineageStore exposes the underlying LineageStore (nil in timestore-only
// mode).
func (db *DB) LineageStore() *lineagestore.Store { return db.ls }

// PlannerDecisions reports how many queries each store served.
func (db *DB) PlannerDecisions() (lineage, timeStore int64) {
	return db.decided.lineage.Load(), db.decided.time.Load()
}

// LatestTimestamp returns the newest committed timestamp.
func (db *DB) LatestTimestamp() model.Timestamp {
	if db.ts != nil {
		return db.ts.LatestTimestamp()
	}
	return db.ls.AppliedThrough()
}

// DiskBytes reports the store's total on-disk footprint (Fig 10).
func (db *DB) DiskBytes() (timeStore, lineage int64) {
	if db.ts != nil {
		timeStore = db.ts.DiskBytes()
	}
	if db.ls != nil {
		lineage = db.ls.DiskBytes()
	}
	return
}

// Flush makes every ingested update durable. The TimeStore log is the
// authoritative copy (at Open the LineageStore catches up from it, from its
// checkpoint after a clean Close and from nothing after a crash), so
// flushing the TimeStore — which syncs the shared string table before its
// log — is sufficient in every mode that has one.
func (db *DB) Flush() error {
	if db.ts != nil {
		return db.ts.Flush()
	}
	if err := db.strings.Sync(); err != nil {
		return err
	}
	return db.ls.Flush()
}

// Close drains the background queue, lets the LineageStore reads under way
// finish (later ones fail), flushes, and closes all stores: the TimeStore
// first, so the log prefix the LineageStore's checkpoint names is durable
// before the checkpoint is.
func (db *DB) Close() error {
	if db.closed.Swap(true) {
		return nil
	}
	if db.opts.Mode == SyncHybrid {
		close(db.queue)
		db.wg.Wait()
	}
	db.reading.Lock()
	defer db.reading.Unlock()
	return errors.Join(db.closeStores(), db.Err())
}

// closeStores closes whichever stores are open, all even when one fails. The
// strings are synced before the LineageStore publishes its checkpoint.
func (db *DB) closeStores() error {
	var err error
	if db.ts != nil {
		err = db.ts.Close()
	} else {
		err = db.strings.Sync()
	}
	if db.ls != nil {
		err = errors.Join(err, db.ls.Close())
	}
	return errors.Join(err, db.strings.Close())
}
