// Package timestore implements TimeStore (Sec 4.3), Aion's snapshot-based
// temporal store: a single append-only log of all graph changes ordered by
// commit timestamp, a sparse in-memory fence list turning a stream position
// into a log offset (derived from the log at Open), eagerly created full
// snapshots governed by a user-defined policy (operation- or log-bytes-
// based) and catalogued in memory from their file names, and the in-memory
// GraphStore LRU cache to avoid snapshot I/O. Retrieving a graph at an
// arbitrary timestamp fetches the closest snapshot and replays the forward
// changes from the log.
package timestore

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"aion/internal/enc"
	"aion/internal/graphstore"
	"aion/internal/memgraph"
	"aion/internal/model"
	"aion/internal/pool"
	"aion/internal/vfs"
	"aion/internal/wal"
)

// Options configures a TimeStore.
type Options struct {
	// Dir is the directory for the log and snapshot files. It must exist.
	Dir string
	// SnapshotEveryOps triggers a snapshot after this many updates
	// (operation-based policy, the paper's default). <= 0 disables.
	SnapshotEveryOps int
	// SnapshotEveryBytes triggers a snapshot after this many log bytes have
	// been appended since the previous snapshot. <= 0 disables. This is the
	// store's default policy when no other is configured: unlike the
	// operation count, log bytes track both how much replay a reopen would
	// pay and how much work the snapshot itself avoids, so heavy updates
	// (many properties) snapshot proportionally more often than no-op-sized
	// ones, and the trigger cost stays off the ingest path (the background
	// worker does the serialization either way).
	SnapshotEveryBytes int64
	// GraphStoreBytes is the byte budget of the in-memory snapshot cache.
	GraphStoreBytes int64
	// ParallelIO is the worker count of the snapshot (de)serialization and
	// log-replay pipelines. <= 0 (the default) means GOMAXPROCS; 1 runs the
	// same pipelines inline on the calling goroutine (no goroutines, every
	// filesystem operation in program order), with identical behaviour and
	// on-disk bytes.
	ParallelIO int
	// PartitionEvery seals the active partition once it holds at least this
	// many updates (the seal lands on the next timestamp boundary, so a
	// partition always ends at a complete timestamp). <= 0 (the default)
	// disables partitioning: one monolithic active log, the pre-partition
	// behaviour.
	PartitionEvery int
	// DeltaChainLength is the number of differential snapshots between full
	// ones in a sealed partition's chain. 0 picks the default (4); < 0
	// disables deltas (every chain element is a full materialization).
	DeltaChainLength int
	// FS is the filesystem the store persists through. nil means the real
	// OS filesystem; crash tests substitute a vfs.FaultFS.
	FS vfs.FS
}

// DefaultSnapshotEveryBytes is the log-bytes snapshot policy applied when
// no policy is configured: snapshot after ~4 MiB of new log bytes.
const DefaultSnapshotEveryBytes = 4 << 20

func (o *Options) defaults() {
	if o.SnapshotEveryOps == 0 && o.SnapshotEveryBytes == 0 {
		o.SnapshotEveryBytes = DefaultSnapshotEveryBytes
	}
	if o.GraphStoreBytes <= 0 {
		o.GraphStoreBytes = 256 << 20
	}
	if o.ParallelIO <= 0 {
		o.ParallelIO = runtime.GOMAXPROCS(0)
	}
	if o.DeltaChainLength == 0 {
		o.DeltaChainLength = 4
	}
}

// Store is a TimeStore instance. Appends are serialized by the caller's
// transaction order (timestamps must be non-decreasing); reads may run
// concurrently.
type Store struct {
	mu    sync.Mutex
	opts  Options
	fs    vfs.FS
	codec *enc.Codec
	log   *wal.Log
	gs    *graphstore.Store

	// fences is the active log's only index: the fence of its first live
	// record and of every fenceStride-th after it, in stream order. Appended
	// under s.mu, read by queries that hold only sealMu, hence its own lock.
	// Lock order: s.mu, sealMu, fenceMu; no I/O runs under fenceMu.
	fenceMu sync.Mutex
	fences  []fence

	// snaps catalogues the active partition's published snapshot files,
	// sorted by timestamp with one entry per timestamp (a later snapshot at
	// the same timestamp supersedes the earlier). It is derived from the
	// file names at Open and guarded by its own small lock, snapMu, because
	// the background snapshot worker registers files without s.mu. Lock
	// order: s.mu, sealMu, snapMu; no I/O runs under snapMu.
	snapMu sync.Mutex
	snaps  []chainElem

	// sealMu serializes partition-set transitions against readers: queries
	// take the read side for their whole partition walk, sealSurgery takes
	// the write side while it swaps the active log and its fences. Lock order
	// is always s.mu before sealMu.
	sealMu sync.RWMutex
	// parts are the sealed partitions, oldest first (guarded by sealMu for
	// readers; all writers also hold s.mu).
	parts []*sealedPart
	// activeCount / activeMinTS track the unsealed partition's extent.
	activeCount int
	activeMinTS model.Timestamp
	// entryTS/entrySeq is the exact position the active partition's history
	// starts after: the last sealed partition's end, or (-1, 0).
	entryTS  model.Timestamp
	entrySeq uint32
	// sealEntry is a private graph at (entryTS, entrySeq), the base the
	// next seal's compaction replays on. Guarded by s.mu.
	sealEntry *memgraph.Graph
	// sealErr makes a failed seal sticky: the directory may be mid-surgery,
	// so subsequent writes fail fast (reads keep working; reopen recovers).
	sealErr error

	lastTS         model.Timestamp
	seq            uint32
	opsSinceSnap   int
	bytesSinceSnap int64
	updateCount    uint64
	snapshotCount  atomic.Int64
	sealedCount    atomic.Int64
	deltaSnaps     atomic.Int64
	sealedLogBytes atomic.Int64
	chainBytes     atomic.Int64
	// replayed counts updates applied on top of a base materialization
	// (log records and chain deltas) — the work snapshots could not avoid.
	// The equivalence harness asserts bounded replay with it.
	replayed       atomic.Uint64
	compactErrs    atomic.Uint64
	lastCompactErr atomic.Value // string
	encBuf         []byte       // append-path scratch, guarded by mu (Sec 5.3)

	// snapshotBytes is the on-disk snapshot footprint, maintained at
	// persist time so Stats never has to os.Stat snapshot files while
	// holding s.mu (which would stall the append path).
	snapshotBytes atomic.Int64
	// snapErrs / lastSnapErr surface background persistSnapshot failures,
	// which would otherwise vanish silently off the commit path.
	snapErrs    atomic.Uint64
	lastSnapErr atomic.Value // string
	// framePool recycles the (de)serialization pipelines' batch buffers
	// (Sec 5.3: reusable byte buffers on the critical path).
	framePool *pool.Bytes

	// Asynchronous snapshot pipeline: policy-triggered snapshots are
	// serialized off the commit path by a background worker (Sec 5.1:
	// "background workers ... insert new snapshots into the GraphStore").
	snapCh     chan snapJob
	snapWG     sync.WaitGroup
	workerDone chan struct{}
}

// snapJob carries a CoW graph clone to the snapshot worker together with
// the sequence number of the last update it contains, so the snapshot
// filename can identify the exact log position — (timestamp, seq) — the
// snapshot covers through. Timestamps alone are ambiguous: more updates at
// the same timestamp may land after the snapshot is scheduled.
type snapJob struct {
	g   *memgraph.Graph
	seq uint32
}

// Open creates or reopens a TimeStore in opts.Dir using the shared codec.
// Reopening rebuilds the in-memory latest graph from the newest snapshot
// plus the log tail (the paper's recovery path: replay the transaction log
// from the last persisted state).
func Open(codec *enc.Codec, opts Options) (*Store, error) {
	opts.defaults()
	fs := vfs.OrOS(opts.FS)
	if opts.Dir == "" {
		if opts.FS != nil {
			opts.Dir = "timestore"
		} else {
			dir, err := vfs.MkdirTemp("", "aion-timestore-*")
			if err != nil {
				return nil, err
			}
			opts.Dir = dir
		}
	}
	// Probe the sealed partitions first: a crash mid-seal may have left the
	// active log under a marker-less p-N directory, and the rollback must
	// reinstate it before the active path below would create an empty one.
	parts, err := recoverPartitions(fs, opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("timestore: recover partitions: %w", err)
	}
	log, err := wal.OpenFS(fs, filepath.Join(opts.Dir, "updates.log"))
	if err != nil {
		return nil, err
	}
	s := &Store{
		opts:       opts,
		fs:         fs,
		codec:      codec,
		log:        log,
		gs:         graphstore.New(opts.GraphStoreBytes),
		parts:      parts,
		snapCh:     make(chan snapJob, 2),
		workerDone: make(chan struct{}),
		framePool:  pool.NewBytes(frameBatchBytes + 4096),
	}
	if err := s.recover(); err != nil {
		return nil, fmt.Errorf("timestore: recover: %w", err)
	}
	// Make the directory entries of everything Open created (the log) and
	// recover deleted (tmps, orphan snapshots) durable: fsyncing a file's
	// contents does not persist its name.
	if err := fs.SyncDir(opts.Dir); err != nil {
		return nil, fmt.Errorf("timestore: sync dir: %w", err)
	}
	go s.snapshotWorker()
	return s, nil
}

// snapshotWorker serializes policy-triggered snapshots in the background.
// Its graphs are private CoW clones complete at their timestamp, so once
// the file is published the cache takes ownership without another clone.
func (s *Store) snapshotWorker() {
	defer close(s.workerDone)
	for j := range s.snapCh {
		if s.persistSnapshot(j.g, j.seq) == nil {
			s.gs.PutOwned(j.g)
		}
		s.snapWG.Done()
	}
}

// persistSnapshot publishes g as the snapshot file at position
// (g.Timestamp(), seq) and catalogues it: the one path behind policy and
// eager snapshots. It must not take s.mu: a bulk AppendBatch holds that
// lock for its whole batch, and policy snapshots must keep landing
// concurrently (the catalogue and the GraphStore have their own locks; the
// counters are atomic). Snapshot loss is tolerable (the log still covers
// the range), but never silent: a failure is counted, surfaced through
// Stats, and returned.
func (s *Store) persistSnapshot(g *memgraph.Graph, seq uint32) error {
	pos := position{ts: g.Timestamp(), seq: seq}
	path := filepath.Join(s.opts.Dir, snapFileName(pos.ts, pos.seq))
	var replaced int64
	if sz, err := s.fs.Stat(path); err == nil {
		replaced = sz // re-snapshot at the same position overwrites the file
	}
	n, err := s.publishFrameFile(path, nil, g.Export())
	if err != nil {
		s.snapErrs.Add(1)
		s.lastSnapErr.Store(err.Error())
		return err
	}
	s.registerSnapshot(chainElem{kind: enc.DeltaFull, pos: pos, path: path})
	s.snapshotCount.Add(1)
	s.snapshotBytes.Add(n - replaced)
	return nil
}

// registerSnapshot enters a published snapshot file into the catalogue,
// replacing any entry at the same timestamp.
func (s *Store) registerSnapshot(e chainElem) {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	i := chainFloor(s.snaps, e.pos.ts)
	if i >= 0 && s.snaps[i].pos.ts == e.pos.ts {
		s.snaps[i] = e
		return
	}
	s.snaps = slices.Insert(s.snaps, i+1, e)
}

// floorSnapshot returns the catalogued snapshot with the newest timestamp
// at or before ts.
func (s *Store) floorSnapshot(ts model.Timestamp) (chainElem, bool) {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	if i := chainFloor(s.snaps, ts); i >= 0 {
		return s.snaps[i], true
	}
	return chainElem{}, false
}

// resetSnapshots empties the catalogue and returns what it held (a seal
// retires every active snapshot in favour of the partition's chain).
func (s *Store) resetSnapshots() []chainElem {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	old := s.snaps
	s.snaps = nil
	return old
}

// fence pins a point inside a log segment: the stream is complete through
// pos just before the record at offset off, so a walk that starts there can
// number every record it meets (same timestamp: seq+1; new timestamp: 0).
// A sealed chain element's (pos, logOff) is a fence too.
type fence struct {
	pos position
	off int64
}

// fenceStride is how many active-log records share one fence. A lookup
// discards at most fenceStride-1 decoded records before the one it wants:
// at 128 that is half of one replay decode batch (frameBatchRecords) inside
// a readahead chunk the scan reads and checksums anyway, while the list
// costs 24 B per 128 updates of memory and a lock once per 128 appends.
// A constant in production; a variable only so tests can shrink it.
var fenceStride = 128

// advanceLocked moves the stream position past one live active-log record
// at timestamp ts and log offset off — fencing it when it opens a stride —
// and counts it. It is the one bookkeeping step shared by AppendBatch and
// recovery's replay, so both lay identical fences. Caller holds s.mu (or is
// Open, before the store is shared).
func (s *Store) advanceLocked(ts model.Timestamp, off int64) {
	cur := position{ts: s.lastTS, seq: s.seq}
	if s.activeCount%fenceStride == 0 {
		s.fenceMu.Lock()
		s.fences = append(s.fences, fence{pos: cur, off: off})
		s.fenceMu.Unlock()
	}
	if s.activeCount == 0 {
		s.activeMinTS = ts
	}
	cur = cur.next(ts)
	s.lastTS, s.seq = cur.ts, cur.seq
	s.updateCount++
	s.activeCount++
}

// fenceFloor returns the newest fence at or before from — the first fence
// when from predates the active partition — and false when the active log
// holds no live record.
func (s *Store) fenceFloor(from position) (fence, bool) {
	s.fenceMu.Lock()
	defer s.fenceMu.Unlock()
	if len(s.fences) == 0 {
		return fence{}, false
	}
	i := sort.Search(len(s.fences), func(k int) bool { return from.before(s.fences[k].pos) }) - 1
	return s.fences[max(i, 0)], true
}

// resetFences empties the fence list (a seal starts a fresh active log;
// each recovery pass lays its fences from scratch).
func (s *Store) resetFences() {
	s.fenceMu.Lock()
	s.fences = nil
	s.fenceMu.Unlock()
}

// loadSnapshotFile materializes a snapshot file into a fresh graph stamped
// ts, observing ctx cancellation between frame batches.
func (s *Store) loadSnapshotFile(ctx context.Context, path string, ts model.Timestamp) (*memgraph.Graph, error) {
	g := memgraph.New()
	if err := s.readFrameFile(ctx, path, nil, g.ApplyAll); err != nil {
		return nil, err
	}
	g.SetTimestamp(ts)
	return g, nil
}

// snapFileName names a snapshot by the (timestamp, sequence) pair of the
// last update it contains; the name alone lets recovery place the snapshot
// exactly in the update stream without trusting any index.
func snapFileName(ts model.Timestamp, seq uint32) string {
	return fmt.Sprintf("snap-%016x-%08x.snap", uint64(ts), seq)
}

// parseSnapName extracts (ts, seq) from a snapFileName-formatted filename.
func parseSnapName(name string) (model.Timestamp, uint32, bool) {
	const pre, suf = "snap-", ".snap"
	if !strings.HasPrefix(name, pre) || !strings.HasSuffix(name, suf) {
		return 0, 0, false
	}
	mid := name[len(pre) : len(name)-len(suf)]
	if len(mid) != 16+1+8 || mid[16] != '-' {
		return 0, 0, false
	}
	ts, err := strconv.ParseUint(mid[:16], 16, 64)
	if err != nil {
		return 0, 0, false
	}
	seq, err := strconv.ParseUint(mid[17:], 16, 32)
	if err != nil {
		return 0, 0, false
	}
	return model.Timestamp(ts), uint32(seq), true
}

// recoverSealed walks the already-probed sealed partitions (oldest first),
// carrying the running end-state graph forward: a partition with a
// complete chain materializes its end element; one without (crash mid-
// compaction, or an orphan-dropped chain) replays its log from the
// previous end and recompacts the chain — self-healing, with compaction
// failures recorded rather than fatal. Returns the state at the last
// sealed position, the seed for the active partition's recovery.
func (s *Store) recoverSealed(ctx context.Context) (*memgraph.Graph, error) {
	g := memgraph.New()
	g.SetTimestamp(-1)
	for _, p := range s.parts {
		s.sealedCount.Add(1)
		s.sealedLogBytes.Add(p.log.Size())
		s.updateCount += p.count
		for _, c := range p.chain {
			if sz, serr := s.fs.Stat(c.path); serr == nil {
				s.chainBytes.Add(sz)
			}
			if c.kind == enc.DeltaDiff {
				s.deltaSnaps.Add(1)
			}
		}
		if p.chain != nil {
			ng, err := s.materializeElem(ctx, p, len(p.chain)-1)
			if err != nil {
				return nil, err
			}
			g = ng
			continue
		}
		end, cerr := s.compactPartition(ctx, p, g.Clone())
		if cerr == nil {
			g = end
			continue
		}
		s.recordCompactError(cerr)
		// The chain could not be rebuilt; derive the end state (and verify
		// the log against the marker, which compaction normally does) by
		// plain replay.
		var n uint64
		var aerr error
		err := s.replayWal(ctx, p.log, 1, 0, func(_ int64, u model.Update) bool {
			n++
			aerr = g.Apply(u)
			return aerr == nil
		})
		if err == nil {
			err = aerr
		}
		if err != nil {
			return nil, err
		}
		if n != p.count {
			return nil, fmt.Errorf("timestore: partition %s log holds %d updates, marker says %d", p.dir, n, p.count)
		}
		g.SetTimestamp(p.maxTS)
	}
	if len(s.parts) > 0 {
		last := s.parts[len(s.parts)-1]
		s.entryTS, s.entrySeq = last.maxTS, last.endSeq
	} else {
		s.entryTS, s.entrySeq = -1, 0
	}
	return g, nil
}

// recover rebuilds all derived state from the sources of truth a crash
// cannot corrupt: the sealed partitions (marker-committed logs plus self-
// describing chain files) and, for the active partition, the tail-repaired
// log and the set of fully-renamed snapshot files (whose names carry their
// positions). Leftover *.tmp files from a crash mid-snapshot are removed,
// as are snapshots at or before the sealed boundary (their history now
// lives in a partition chain); a snapshot whose position is ahead of the
// recovered log — persisted by the background worker before the covering
// log bytes were ever fsynced — is deleted, because keeping it would
// resurrect updates that were never durably logged. The newest surviving
// snapshot (or the sealed end state) seeds the latest in-memory graph and
// the log tail past it is replayed on top; the same pass lays the fences.
func (s *Store) recover() (err error) {
	ctx := context.Background()
	base, err := s.recoverSealed(ctx)
	if err != nil {
		return err
	}
	sealedUpdates := s.updateCount
	names, err := s.fs.ReadDir(s.opts.Dir)
	if err != nil {
		return err
	}
	var snaps []chainElem // oldest first
	for _, name := range names {
		full := filepath.Join(s.opts.Dir, name)
		if strings.HasSuffix(name, ".tmp") {
			if rerr := s.fs.Remove(full); rerr != nil {
				return rerr
			}
			continue
		}
		if name == "time.idx" {
			// The on-disk time index of stores written before the fence
			// list: nothing reads it, so it is dropped, best effort.
			_ = s.fs.Remove(full)
			continue
		}
		if ts, seq, ok := parseSnapName(name); ok {
			if ts <= s.entryTS {
				// Pre-seal leftover (the seal crashed before the top-level
				// directory sync): the partition chain supersedes it.
				if rerr := s.fs.Remove(full); rerr != nil {
					return rerr
				}
				continue
			}
			snaps = append(snaps, chainElem{kind: enc.DeltaFull, pos: position{ts: ts, seq: seq}, path: full})
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].pos.before(snaps[j].pos) })

	for {
		baseTS := model.Timestamp(-1)
		baseSeq := uint32(0)
		basePath := ""
		if len(snaps) > 0 {
			newest := snaps[len(snaps)-1]
			baseTS, baseSeq, basePath = newest.pos.ts, newest.pos.seq, newest.path
		}
		var latest *memgraph.Graph
		if basePath != "" {
			latest, err = s.loadSnapshotFile(ctx, basePath, baseTS)
			if err != nil {
				return err
			}
		} else {
			latest = base.Clone()
		}
		// Replay the whole active log: every live record is counted and
		// fenced (from scratch on each retry), and records past the
		// snapshot's exact (ts, seq) position advance the latest graph —
		// timestamps alone cannot place a snapshot, since more updates at
		// the same timestamp may follow it in the log. Records at or before
		// the sealed boundary are skipped entirely, so the first fence is the
		// first live record: they appear only when a crash between the seal's
		// marker and its top-level directory sync resurfaced the old pre-seal
		// log under the active name, and their history already lives in the
		// sealed partition.
		s.lastTS, s.seq = s.entryTS, s.entrySeq
		s.updateCount = sealedUpdates
		s.activeCount = 0
		s.resetFences()
		firstPastOff := int64(-1) // log offset of the first record past the snapshot
		var replayErr error
		err = s.replayLog(ctx, 0, func(off int64, u model.Update) bool {
			if u.TS <= s.entryTS {
				return true // stale pre-seal record
			}
			s.advanceLocked(u.TS, off)
			if u.TS > baseTS || (u.TS == baseTS && s.seq > baseSeq) {
				if firstPastOff < 0 {
					firstPastOff = off
				}
				if aerr := latest.Apply(u); aerr != nil {
					replayErr = aerr
					return false
				}
			}
			return true
		})
		if err == nil {
			err = replayErr
		}
		if err != nil {
			return err
		}
		recoveredTS := s.entryTS
		if s.activeCount > 0 {
			recoveredTS = s.lastTS
		}
		if baseTS > recoveredTS || (baseTS == recoveredTS && baseTS > s.entryTS && baseSeq > s.seq) {
			// Snapshot ahead of the durable log: drop it and retry with the
			// next-newest one.
			if rerr := s.fs.Remove(basePath); rerr != nil {
				return rerr
			}
			snaps = snaps[:len(snaps)-1]
			continue
		}
		// Catalogue the surviving snapshots and seed the running footprint
		// counter (the only time snapshot files are stat'ed). A snapshot
		// superseded by a later one at the same timestamp is garbage — its
		// file is removed here.
		var snapBytes int64
		s.snaps = snaps[:0]
		for i, sn := range snaps {
			if i+1 < len(snaps) && snaps[i+1].pos.ts == sn.pos.ts {
				if rerr := s.fs.Remove(sn.path); rerr != nil {
					return rerr
				}
				continue
			}
			s.snaps = append(s.snaps, sn)
			if sz, serr := s.fs.Stat(sn.path); serr == nil {
				snapBytes += sz
			}
		}
		s.snapshotBytes.Store(snapBytes)
		// Seed the log-bytes policy with the replay debt actually carried
		// past the seeding snapshot, so a reopened store keeps its bounded
		// recovery window instead of accruing another full budget first.
		if firstPastOff >= 0 {
			s.bytesSinceSnap = s.log.Size() - firstPastOff
		} else {
			s.bytesSinceSnap = 0
		}
		// Install the recovered graph as the GraphStore's latest (cheaper
		// than re-applying every update through the store).
		s.gs = graphstore.NewWithLatest(s.opts.GraphStoreBytes, latest)
		break
	}
	s.sealEntry = base
	return nil
}

// Append writes one committed update: AppendBatch of a single update.
func (s *Store) Append(u model.Update) error {
	return s.AppendBatch([]model.Update{u})
}

// AppendBatch appends a batch of updates under one lock acquisition (the
// paper batches transactions for ingestion performance, Sec 6.4): the whole
// batch is encoded with the batch encoder and written to the log with a
// single AppendBatch — one log lock, one write syscall — instead of one
// Append per update. Timestamps are validated up front so a mid-batch
// monotonicity violation rejects the batch before anything reaches the
// log. The snapshot policy is still evaluated per update (a bulk load can
// legitimately cross several policy boundaries); the trigger is an O(1)
// CoW clone handed to the background worker, so it costs the batch nothing.
func (s *Store) AppendBatch(us []model.Update) error {
	if len(us) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sealErr != nil {
		return s.sealErr
	}
	if us[0].TS < 0 {
		return fmt.Errorf("timestore: %w: negative ts %d", model.ErrNonMonotonic, us[0].TS)
	}
	last := s.lastTS
	for _, u := range us {
		if u.TS < last {
			return fmt.Errorf("timestore: %w: ts %d after %d", model.ErrNonMonotonic, u.TS, last)
		}
		last = u.TS
	}
	// The seal trigger is evaluated once, before the batch reaches the log:
	// the log write is a single call, so a mid-batch seal would strand the
	// batch's tail inside the sealed segment. Sealing only at a strict
	// timestamp boundary guarantees every post-seal record's timestamp
	// exceeds the sealed boundary — the property recovery's stale-record
	// skip relies on.
	if s.opts.PartitionEvery > 0 && s.activeCount >= s.opts.PartitionEvery && us[0].TS > s.lastTS {
		if err := s.sealActiveLocked(); err != nil {
			return err
		}
	}
	payloads, buf, err := s.codec.EncodeUpdates(s.encBuf, us)
	if err != nil {
		return err
	}
	s.encBuf = buf[:0]
	// Encoding may have interned new strings into the table's user-space
	// buffer; push them to the OS before the log bytes that reference them,
	// so a process crash (which keeps completed writes but drops buffers)
	// cannot leave log records with dangling refs. Power-loss ordering is
	// separately enforced by Flush/Close syncing strings before the log.
	if err := s.codec.Strings.Flush(); err != nil {
		return err
	}
	offs, err := s.log.AppendBatch(payloads)
	if err != nil {
		return err
	}
	for i, u := range us {
		// Timestamp boundary: the latest graph is complete at s.lastTS — the
		// only moment a policy snapshot may capture it. Capturing mid-
		// timestamp would poison the GraphStore with a state no (ts) query
		// key can name.
		if u.TS > s.lastTS && s.activeCount > 0 {
			s.maybeSnapshotLocked()
		}
		s.advanceLocked(u.TS, offs[i])
		if err := s.gs.ApplyToLatest(u); err != nil {
			return err
		}
		s.opsSinceSnap++
		s.bytesSinceSnap += int64(len(payloads[i]))
	}
	return nil
}

// maybeSnapshotLocked runs the snapshot policy (operation- or log-bytes-
// based, Sec 4.3) and schedules an asynchronous snapshot when a configured
// trigger is due. It is called at timestamp boundaries, so the captured
// graph is always complete at its timestamp — the invariant every
// GraphStore entry carries.
func (s *Store) maybeSnapshotLocked() {
	if (s.opts.SnapshotEveryOps > 0 && s.opsSinceSnap >= s.opts.SnapshotEveryOps) ||
		(s.opts.SnapshotEveryBytes > 0 && s.bytesSinceSnap >= s.opts.SnapshotEveryBytes) {
		s.scheduleSnapshotLocked()
	}
}

// scheduleSnapshotLocked hands the latest graph to the background snapshot
// worker (a CoW clone, so the commit path pays O(1)). While the worker's
// queue is full the trigger is deferred — the policy counters are left
// untouched, so the very next append retries — keeping snapshot density
// close to the policy even during bulk loads.
func (s *Store) scheduleSnapshotLocked() {
	if len(s.snapCh) == cap(s.snapCh) {
		return // worker busy; retry on the next append
	}
	g := s.gs.Latest()
	s.opsSinceSnap = 0
	s.bytesSinceSnap = 0
	s.snapWG.Add(1)
	s.snapCh <- snapJob{g: g, seq: s.seq} // cannot block: single producer under s.mu saw room
}

// WaitSnapshots blocks until all in-flight background snapshots are
// persisted (used by tests and benchmarks).
func (s *Store) WaitSnapshots() { s.snapWG.Wait() }

// CreateSnapshot forces an eager snapshot of the latest graph.
func (s *Store) CreateSnapshot() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.createSnapshotLocked()
}

func (s *Store) createSnapshotLocked() error {
	// Unlike policy snapshots, an eager snapshot may land mid-timestamp
	// (more updates at ts can still arrive), so the graph must NOT enter
	// the GraphStore: the cache only ever holds graphs complete at their
	// timestamp. The file itself is fine — its name carries the exact
	// (ts, seq) position, which disk-floor lookups honour.
	if err := s.persistSnapshot(s.gs.Latest(), s.seq); err != nil {
		return err
	}
	s.opsSinceSnap = 0
	s.bytesSinceSnap = 0
	return nil
}

// Stats reports store counters for the benchmark harness.
type Stats struct {
	Updates       uint64
	Snapshots     int
	LogBytes      int64
	IndexBytes    int64 // always 0: the fences are memory-only; kept for the consumers that report it
	SnapshotBytes int64
	// SealedPartitions is the number of sealed (immutable) partitions;
	// DeltaSnapshots counts the differential elements across their chains;
	// SealedLogBytes / ChainBytes are their on-disk footprints (SealedLogBytes
	// is also folded into LogBytes).
	SealedPartitions int
	DeltaSnapshots   int
	SealedLogBytes   int64
	ChainBytes       int64
	// ReplayedUpdates counts updates applied on top of a base
	// materialization while answering queries — the replay work snapshots
	// and chains could not avoid. The equivalence harness asserts bounded
	// replay with it.
	ReplayedUpdates uint64
	// CompactErrors counts failed partition compactions (the partition
	// stays readable via log replay and recompaction retries at reopen);
	// LastCompactError is the most recent failure's message.
	CompactErrors    uint64
	LastCompactError string
	// SnapshotErrors counts failed snapshot persists (background or
	// eager); LastSnapshotError is the most recent failure's message.
	SnapshotErrors    uint64
	LastSnapshotError string
	GraphStore        graphstore.Stats
}

// Stats returns a snapshot of the store's counters and on-disk footprint.
// The snapshot footprint comes from a running counter maintained at
// persist time, so collecting stats never stats files while holding s.mu
// (which would stall the append path); the sealed-partition figures are
// likewise atomics, so Stats never touches sealMu either.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	lastErr, _ := s.lastSnapErr.Load().(string)
	lastCompact, _ := s.lastCompactErr.Load().(string)
	return Stats{
		Updates:           s.updateCount,
		Snapshots:         int(s.snapshotCount.Load()),
		LogBytes:          s.log.Size() + s.sealedLogBytes.Load(),
		SnapshotBytes:     s.snapshotBytes.Load(),
		SealedPartitions:  int(s.sealedCount.Load()),
		DeltaSnapshots:    int(s.deltaSnaps.Load()),
		SealedLogBytes:    s.sealedLogBytes.Load(),
		ChainBytes:        s.chainBytes.Load(),
		ReplayedUpdates:   s.replayed.Load(),
		CompactErrors:     s.compactErrs.Load(),
		LastCompactError:  lastCompact,
		SnapshotErrors:    s.snapErrs.Load(),
		LastSnapshotError: lastErr,
		GraphStore:        s.gs.Stats(),
	}
}

// DiskBytes reports the total on-disk footprint (logs + indexes + snapshots
// + partition chains) for the Fig 10 storage experiment.
func (s *Store) DiskBytes() int64 {
	st := s.Stats()
	return st.LogBytes + st.IndexBytes + st.SnapshotBytes + st.ChainBytes
}

// LatestTimestamp returns the newest committed timestamp (0 when nothing
// has been committed — internally an empty store sits at the genesis
// position -1, which is not a timestamp callers should see).
func (s *Store) LatestTimestamp() model.Timestamp {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lastTS < 0 {
		return 0
	}
	return s.lastTS
}

// GraphStore exposes the snapshot cache (used by procedures that store
// intermediate results, Sec 5.2).
func (s *Store) GraphStore() *graphstore.Store { return s.gs }

// Flush persists the log, after draining in-flight snapshots. The string
// table is synced before the log: log records hold positional refs into it,
// so a log byte must never become durable ahead of the strings it
// references.
func (s *Store) Flush() error {
	s.snapWG.Wait()
	if err := s.codec.Strings.Sync(); err != nil {
		return err
	}
	return s.log.Sync()
}

// Close flushes and closes the store, including every sealed partition's
// log segment. The background snapshot worker is reaped and every log is
// closed even when the flush fails (e.g. on a failed filesystem), so Close
// never leaks the goroutine or a descriptor.
func (s *Store) Close() error {
	err := s.Flush()
	if s.snapCh != nil {
		close(s.snapCh)
		<-s.workerDone
		s.snapCh = nil
	}
	err = errors.Join(err, s.log.Close())
	for _, p := range s.parts {
		err = errors.Join(err, p.log.Close())
	}
	return err
}
