// Package timestore implements TimeStore (Sec 4.3), Aion's snapshot-based
// temporal store: an append-only log of all graph changes ordered by commit
// timestamp, materializations of the graph placed in that log, and the
// in-memory GraphStore LRU cache to avoid their I/O. Retrieving a graph at
// an arbitrary timestamp fetches the closest materialization and replays
// the forward changes from the log.
//
// On disk the store is a run of segment directories p-1/ … p-N/
// (partition.go), each holding updates.log and a chain of .dsnap elements
// — one file format, whose header carries the element's stream position,
// its base and the log offset replay resumes at. One rule shapes every
// chain: a full materialization, then up to Options.DeltaChainLength
// differential elements, each the net effect of the log since its
// predecessor. The last directory is the active segment: appends land in
// its log, a snapshot every Options.SnapshotEveryOps updates (the policy)
// joins its chain as that rule's next element, and a sparse
// in-memory fence list (laid again from the log at Open) turns a stream
// position into a log offset. Once it holds Options.PartitionEvery updates
// a marker file seals it, its chain is recompacted at cuts of its own
// (delta.go), and p-(N+1)/ takes over; a store that never seals is exactly
// p-1/. There is no migration: Open rejects a directory written before this
// layout, and reads any chain written since, one of fulls only included.
package timestore

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
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
	// Dir is the directory the segment directories live under.
	Dir string
	// SnapshotEveryOps is the snapshot policy (operation-based, the paper's
	// default): a snapshot after this many updates. 0 means
	// DefaultSnapshotEveryOps; < 0 takes no policy snapshots.
	SnapshotEveryOps int
	// GraphStoreBytes is the byte budget of the in-memory snapshot cache.
	GraphStoreBytes int64
	// ParallelIO is the worker count of the snapshot (de)serialization and
	// log-replay pipelines. <= 0 (the default) means GOMAXPROCS; 1 runs the
	// same pipelines inline on the calling goroutine (no goroutines, every
	// filesystem operation in program order), with identical behaviour and
	// on-disk bytes.
	ParallelIO int
	// PartitionEvery seals the active segment once it holds at least this
	// many updates (the seal lands on the next timestamp boundary, so a
	// segment always ends at a complete timestamp). <= 0 (the default)
	// never seals: the whole history stays in p-1.
	PartitionEvery int
	// DeltaChainLength is the number of differential snapshots between full
	// ones in a segment's chain, the active segment's (policy snapshots) and
	// a sealed one's (compaction) alike. 0 picks the default (4); < 0
	// disables deltas (every chain element is a full materialization).
	DeltaChainLength int
	// FS is the filesystem the store persists through. nil means the real
	// OS filesystem; crash tests substitute a vfs.FaultFS.
	FS vfs.FS
	// Host is the host database this store is attached to, as internal/system
	// wires it — not a setting: hostdb.DB.Committed, which returns a CoW clone
	// of the committed graph the receiver owns, the commit timestamp it is
	// complete at and the number of updates committed since genesis. A hosted
	// store keeps no current graph of its own: where it needs the graph at its
	// log's end it asks here (pullLocked). nil means stand-alone: the store
	// applies every append to a graph of its own and asks that one.
	Host func() (g *memgraph.Graph, clock model.Timestamp, updates uint64)
}

// DefaultSnapshotEveryOps is the snapshot policy of a store that sets none.
const DefaultSnapshotEveryOps = 16384

func (o *Options) defaults() {
	if o.SnapshotEveryOps == 0 {
		o.SnapshotEveryOps = DefaultSnapshotEveryOps
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
	gs    *graphstore.Store

	// sealMu serializes changes of the segment set against readers: queries
	// take the read side for their whole walk, a seal takes the write side
	// for its switch in memory. Lock order is s.mu, sealMu, then one
	// segment's leaf lock.
	sealMu sync.RWMutex
	// segs are the segments, oldest first; all but the last are sealed
	// (guarded by sealMu for readers; all writers also hold s.mu).
	segs []*segment
	// sealEntry is a private graph at the active segment's entry, the base
	// the next seal's compaction replays on. Guarded by s.mu.
	sealEntry *memgraph.Graph
	// sealErr makes a failed seal sticky: the disk may be a step ahead of
	// memory, so subsequent writes fail fast (reads keep working; reopen
	// recovers).
	sealErr error

	lastTS        model.Timestamp
	seq           uint32
	opsSinceSnap  int
	updateCount   uint64
	snapshotCount atomic.Int64
	// replayed counts updates applied on top of a base materialization
	// (log records and chain deltas) — the work snapshots could not avoid.
	// The equivalence harness asserts bounded replay with it.
	replayed       atomic.Uint64
	compactErrs    atomic.Uint64
	lastCompactErr atomic.Value // string
	encBuf         []byte       // append-path scratch, guarded by mu (Sec 5.3)

	// loadedEntities counts the entity versions element files have produced,
	// sharedEntities those of them that are the committed graph's own objects.
	loadedEntities, sharedEntities atomic.Uint64

	// committed returns the committed graph — Options.Host, or own.Committed —
	// with the clock and update count it is complete at (call it through
	// pull, which counts); own is the graph a stand-alone store applies every
	// append to, nil when a host is attached.
	committed func() (*memgraph.Graph, model.Timestamp, uint64)
	own       *ownGraph
	pulls     atomic.Uint64
	// pending is the graph a due policy snapshot captured at the end of the
	// last batch, waiting for the next timestamp boundary to name its log
	// offset; nil when none is waiting. mismatches counts the captures refused
	// at a round's last call. Both guarded by mu.
	pending    *memgraph.Graph
	mismatches uint64

	// snapErrs / lastSnapErr surface background persistSnapshot failures,
	// which would otherwise vanish silently off the commit path.
	snapErrs    atomic.Uint64
	lastSnapErr atomic.Value // string
	// framePool recycles the element writer's frame buffers (Sec 5.3:
	// reusable byte buffers on the critical path).
	framePool *pool.Bytes

	// Asynchronous snapshot pipeline: policy-triggered snapshots are
	// serialized off the commit path by a background worker (Sec 5.1:
	// "background workers ... insert new snapshots into the GraphStore").
	snaps      *snapQueue
	snapWG     sync.WaitGroup
	workerDone chan struct{}
}

// snapQueue hands policy snapshots to the worker. It has no bound: a snapshot
// falls due, is captured and is queued where the update stream says, however
// far behind the worker is, so the chain's element positions depend on the
// stream alone and the commit path never waits. What a backlog holds is CoW
// clones, each the directories of a graph and the chunks written since it.
type snapQueue struct {
	mu     sync.Mutex
	ready  sync.Cond
	jobs   []snapJob
	closed bool
}

func newSnapQueue() *snapQueue {
	q := &snapQueue{}
	q.ready.L = &q.mu
	return q
}

func (q *snapQueue) put(j snapJob) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.jobs = append(q.jobs, j)
	q.ready.Signal()
}

// take returns the oldest job, waiting for one; false once the queue is
// closed and empty.
func (q *snapQueue) take() (snapJob, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.jobs) == 0 && !q.closed {
		q.ready.Wait()
	}
	if len(q.jobs) == 0 {
		return snapJob{}, false
	}
	j := q.jobs[0]
	q.jobs[0] = snapJob{} // the worker's copy is the graph's last reference
	q.jobs = q.jobs[1:]
	return j, true
}

// close lets the worker exit once it has taken every queued job.
func (q *snapQueue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.ready.Broadcast()
}

// snapJob carries a CoW graph clone to the snapshot worker together with
// the segment it belongs to and its fence there: the exact position —
// (timestamp, seq) of the last update it contains — and the log offset just
// past it. Timestamps alone are ambiguous: more updates at the same
// timestamp may land after the snapshot is scheduled.
type snapJob struct {
	seg *segment
	g   *memgraph.Graph
	at  fence
}

// Open creates or reopens a TimeStore in opts.Dir using the shared codec.
// Reopening a stand-alone store rebuilds its in-memory graph from the newest
// materialization plus the log tail (the paper's recovery path: replay the
// transaction log from the last persisted state); one attached to a host
// (Options.Host) has the host's.
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
	if _, err := fs.Stat(filepath.Join(opts.Dir, "updates.log")); err == nil {
		return nil, fmt.Errorf("timestore: %s holds a top-level updates.log, the layout before segment directories; there is no migration — delete the directory and rebuild it from the host log", opts.Dir)
	}
	s := &Store{
		opts:       opts,
		fs:         fs,
		codec:      codec,
		snaps:      newSnapQueue(),
		workerDone: make(chan struct{}),
		framePool:  pool.NewBytes(frameBatchBytes + 4096),
	}
	if err := s.recover(); err != nil {
		err = fmt.Errorf("timestore: recover: %w", err)
		for _, g := range s.segs {
			err = errors.Join(err, g.log.Close())
		}
		return nil, err
	}
	go s.snapshotWorker()
	return s, nil
}

// snapshotWorker serializes policy-triggered snapshots in the background,
// each as the element the chain calls for at its position. It is the only
// writer of deltas and takes its jobs in position order, so a delta's base is
// the element right before it. Its graphs are private CoW clones complete at
// their timestamp: once published, the cache owns them without another clone.
func (s *Store) snapshotWorker() {
	defer close(s.workerDone)
	for {
		j, ok := s.snaps.take()
		if !ok {
			return
		}
		if s.persistSnapshot(j.seg, j.g, j.at, j.seg.deltaBase(j.at.pos, s.opts.DeltaChainLength)) == nil {
			s.gs.PutOwned(j.g)
		}
		s.snapWG.Done()
	}
}

// persistSnapshot publishes the state g at fence at as an element of seg's
// chain, the one path behind policy and eager snapshots: a full
// materialization of g, or — when the caller names the base the chain calls
// for there (segment.deltaBase; the snapshot worker only) — a delta. It must
// not take s.mu or sealMu: a bulk AppendBatch holds s.mu for its whole batch,
// and policy snapshots must keep landing concurrently (the chain and the
// GraphStore have their own locks, a delta's window is read the way queries
// read the log; the counters are atomic). Snapshot loss is tolerable (the log
// still covers the range), but never silent: a failure is counted, surfaced
// through Stats, and returned.
func (s *Store) persistSnapshot(seg *segment, g *memgraph.Graph, at fence, base *chainElem) error {
	e, err := s.writeSnapshot(seg, g, at, base)
	if err == nil {
		if old := seg.insert(e); old != "" { // the other kind's file name at this position
			err = s.fs.Remove(old)
		}
	}
	if err != nil {
		s.snapErrs.Add(1)
		s.lastSnapErr.Store(err.Error())
		return err
	}
	s.snapshotCount.Add(1)
	return nil
}

// writeSnapshot writes g in full, or the net effect of the log window between
// base's fence and at — nothing past at.off is read — as a delta on base.
func (s *Store) writeSnapshot(seg *segment, g *memgraph.Graph, at fence, base *chainElem) (chainElem, error) {
	if base == nil {
		return s.writeChainElem(seg, enc.DeltaFull, at.pos, position{}, at.off, g.Export())
	}
	// Counting the window first (a read and a count prefix per frame, no
	// decode) is cheaper than growing a slice of 144-byte updates to its size.
	n := 0
	_, err := seg.log.ScanRange(base.logOff, at.off, replayReadahead, func(frames []wal.Frame) bool {
		for _, fr := range frames {
			c, _, _ := enc.BlockCount(fr.Payload) // a bad count fails the replay below
			n += c
		}
		return true
	})
	window := make([]model.Update, 0, n) // fresh from the decoder: compactUpdates may own it
	if err == nil {
		err = s.replayWal(context.Background(), seg.log, s.opts.ParallelIO, base.logOff, at.off, func(_ int64, u model.Update) bool {
			window = append(window, u)
			return true
		})
	}
	if err != nil {
		return chainElem{}, err
	}
	return s.writeChainElem(seg, enc.DeltaDiff, at.pos, base.pos, at.off, compactUpdates(window))
}

// fenceStride is how many active-log records share one fence at least. Fences
// sit at frame starts only, the first frame at least fenceStride records past
// the previous fence, so a lookup discards fewer than fenceStride records plus
// one frame before the one it wants: at 128 that is half of one replay job
// (frameBatchRecords), while the list costs 24 B per 128 updates of memory
// and a lock once per 128 appended records.
// A constant in production; a variable only so tests can shrink it.
var fenceStride = 128

// advanceLocked moves the stream position past one frame of the active log —
// n records at timestamp ts, at log offset off — fencing the frame when it
// opens a stride, and counts its records. It is the one bookkeeping step
// shared by AppendBatch and recovery's walk, so both lay identical fences.
// Caller holds s.mu (or is Open, before the store is shared).
func (s *Store) advanceLocked(ts model.Timestamp, off int64, n int) {
	act := s.active()
	cur := position{ts: s.lastTS, seq: s.seq}
	if act.count >= act.nextFence {
		act.mu.Lock()
		act.fences = append(act.fences, fence{pos: cur, off: off})
		act.mu.Unlock()
		act.nextFence = act.count + uint64(fenceStride)
	}
	if act.count == 0 {
		act.minTS = ts
	}
	cur = cur.next(ts)
	s.lastTS, s.seq = cur.ts, cur.seq+uint32(n-1)
	s.updateCount += uint64(n)
	act.count += uint64(n)
}

// recoverSealed walks the sealed segments (oldest first), carrying the
// running end-state graph forward: a segment with a complete chain loads
// its end element; one without (crash mid-compaction, or an orphan-dropped
// chain) replays its log from the previous end and recompacts the chain —
// self-healing, with compaction failures recorded rather than fatal.
// Returns the state at the last sealed position, the active segment's
// entry.
func (s *Store) recoverSealed(ctx context.Context) (*memgraph.Graph, error) {
	g := memgraph.New()
	g.SetTimestamp(-1)
	for _, p := range s.segs[:len(s.segs)-1] {
		s.updateCount += p.count
		if chain := p.elems(); chain != nil {
			ng, err := s.loadElem(ctx, p, chain, len(chain)-1, nil, nil)
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
		err := s.replayWal(ctx, p.log, 1, logStart, logEnd, func(_ int64, u model.Update) bool {
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
			return nil, fmt.Errorf("timestore: segment %s log holds %d updates, marker says %d", p.dir, n, p.count)
		}
		g.SetTimestamp(p.maxTS)
	}
	return g, nil
}

// recover rebuilds all derived state from the sources of truth a crash
// cannot corrupt: each segment's tail-repaired log, the seal markers, and
// the element files' self-describing headers (openSegments). Every frame of
// the active log is walked, to count its records and lay the fences, off its
// count prefix and its first record's timestamp: nothing is decoded. A hosted
// store needs no more: it loads and decodes nothing. A stand-alone one seeds
// its own graph from the newest surviving element of the active chain — else
// the sealed end state — and decodes and applies the log from that element's
// offset on.
func (s *Store) recover() (err error) {
	ctx := context.Background()
	if s.segs, err = openSegments(s.fs, s.opts.Dir); err != nil {
		return err
	}
	base, err := s.recoverSealed(ctx)
	if err != nil {
		return err
	}
	act := s.active()
	s.lastTS, s.seq = act.entry.ts, act.entry.seq
	chain := act.elems()
	from := logStart // active-log offset the replay applies from
	if len(chain) > 0 {
		from = chain[len(chain)-1].logOff
	}
	var perr error
	_, err = act.log.Scan(logStart, func(off int64, frame []byte) bool {
		var n int
		var ts model.Timestamp
		if n, ts, perr = enc.PeekBlock(frame); perr == nil {
			s.advanceLocked(ts, off, n)
		}
		return perr == nil
	})
	if err = errors.Join(err, perr); err != nil {
		return err
	}
	s.committed = s.opts.Host
	if s.committed == nil {
		latest := base.Clone()
		if len(chain) > 0 {
			if latest, err = s.loadElem(ctx, act, chain, len(chain)-1, nil, nil); err != nil {
				return err
			}
		}
		var aerr error
		err = s.replayWal(ctx, act.log, s.opts.ParallelIO, from, logEnd, func(_ int64, u model.Update) bool {
			aerr = latest.Apply(u)
			return aerr == nil
		})
		if err = errors.Join(err, aerr); err != nil {
			return err
		}
		s.own = &ownGraph{g: latest, updates: s.updateCount}
		s.committed = s.own.Committed
	}
	s.gs = graphstore.New(s.opts.GraphStoreBytes)
	s.sealEntry = base
	// Everything Open created (a segment directory, its log) and derivation
	// deleted reaches the directory before the store takes a write.
	return s.syncSegmentNames(act)
}

// ownGraph is what a stand-alone store has in a host's place: the graph
// every append is applied to, behind the signature of hostdb.DB.Committed. Its
// lock is a leaf — a query takes it under sealMu while an append holds s.mu.
type ownGraph struct {
	mu      sync.Mutex
	g       *memgraph.Graph
	updates uint64
}

func (o *ownGraph) apply(us []model.Update) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.updates += uint64(len(us))
	return o.g.ApplyAll(us)
}

// Committed returns a CoW clone of the graph, its timestamp and the number of
// updates applied since genesis.
func (o *ownGraph) Committed() (*memgraph.Graph, model.Timestamp, uint64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.g.Clone(), o.g.Timestamp(), o.updates
}

// pull asks for the committed graph: an O(1) handle for the caller, and for
// whoever is asked a copy of its vectors' directories and of every chunk it
// next writes — which is why every call is counted.
func (s *Store) pull() (*memgraph.Graph, model.Timestamp, uint64) {
	s.pulls.Add(1)
	return s.committed()
}

// pullLocked pulls the committed graph and takes it only when it is the
// state at the log's end: complete at the last timestamp, the same number of
// updates since genesis (two empty stores agree whatever their clocks say).
// Otherwise the graph is dropped — nil — and clock says which way the two
// differ: a host is ahead inside a group-commit round or a shipment until the
// round's last listener call, and while reconcile has a crash-lagged log to
// catch up. The graph is the caller's own handle, sharing every entity object
// with the host's; it carries the store's position, whatever stamp an aborted
// commit left on the host's.
func (s *Store) pullLocked() (g *memgraph.Graph, clock model.Timestamp) {
	g, clock, updates := s.pull()
	if updates != s.updateCount || (clock != s.lastTS && updates > 0) {
		return nil, clock
	}
	g.SetTimestamp(s.lastTS)
	return g, clock
}

// latestLocked returns the graph at the log's end, private to the caller: the
// committed graph when that is where it sits — always, stand-alone — and
// otherwise materialised from the chain and the log like any GetGraph. Caller
// holds s.mu and not sealMu.
func (s *Store) latestLocked(ctx context.Context) (*memgraph.Graph, error) {
	if g, _ := s.pullLocked(); g != nil {
		return g, nil
	}
	return s.GetGraphContext(ctx, s.lastTS)
}

// Latest returns the graph at the log's end, private to the caller.
func (s *Store) Latest() (*memgraph.Graph, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.latestLocked(context.Background())
}

// Append writes one committed update: AppendBatch of a single update.
func (s *Store) Append(u model.Update) error {
	return s.AppendBatch([]model.Update{u})
}

// AppendBatch appends a batch of updates under one lock acquisition (the
// paper batches transactions for ingestion performance, Sec 6.4): each run of
// the batch's records at one timestamp is encoded as one block, and the
// blocks go to the log with a single AppendBatch — one log lock, one write
// syscall — as one frame each. A hosted commit is one timestamp, so one frame
// with one length and CRC, and a torn write drops all of it or none.
// Timestamps are validated up front so a mid-batch monotonicity violation
// rejects the batch before anything reaches the log. The snapshot policy is
// still evaluated per timestamp (a bulk load can legitimately cross several
// policy boundaries); the trigger is an O(1) CoW clone handed to the
// background worker, so it costs the batch nothing. A hosted store applies
// nothing here: the host has the batch already.
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
	// timestamp boundary guarantees every later record's timestamp exceeds
	// the sealed boundary, so a segment owns its timestamps outright.
	if s.opts.PartitionEvery > 0 && s.active().count >= uint64(s.opts.PartitionEvery) && us[0].TS > s.lastTS {
		if err := s.sealActiveLocked(); err != nil {
			return err
		}
	}
	// A payload stays valid when appending moves buf: the bytes it names are
	// not written again.
	var runs [][]model.Update
	var payloads [][]byte
	buf := s.encBuf[:0]
	for lo, hi := 0, 1; hi <= len(us); hi++ {
		if hi == len(us) || us[hi].TS != us[lo].TS {
			start, err := len(buf), error(nil)
			if buf, err = s.codec.AppendBlock(buf, us[lo:hi]); err != nil {
				return err
			}
			runs, payloads, lo = append(runs, us[lo:hi]), append(payloads, buf[start:]), hi
		}
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
	frames := payloads
	if s.active().log.Size() == 0 {
		frames = append([][]byte{[]byte(logMarker)}, payloads...) // in front of the log's first frame
	}
	offs, err := s.active().log.AppendBatch(frames)
	if err != nil {
		return err
	}
	offs = offs[len(frames)-len(payloads):]
	for i, run := range runs {
		ts := run[0].TS
		// Timestamp boundary: the position of the graph captured when the last
		// timestamp ended now has a log offset, this frame's.
		if ts > s.lastTS && s.pending != nil && s.active().count > 0 {
			s.scheduleSnapshotLocked(offs[i])
		}
		s.pending = nil // no longer the log's end
		s.advanceLocked(ts, offs[i], len(run))
		if s.own != nil {
			if err := s.own.apply(run); err != nil {
				return err
			}
		}
		s.opsSinceSnap += len(run)
		// The end of a timestamp, as far as this batch can tell (the next one
		// may continue it, and the capture is dropped): the committed graph is
		// complete at s.lastTS — the only state a policy snapshot may capture;
		// mid-timestamp would poison the GraphStore with a state no (ts) query
		// key can name.
		if s.snapshotDueLocked() {
			s.captureSnapshotLocked()
		}
	}
	return nil
}

// snapshotDueLocked runs the snapshot policy (operation-based, Sec 4.3).
func (s *Store) snapshotDueLocked() bool {
	return s.opts.SnapshotEveryOps > 0 && s.opsSinceSnap >= s.opts.SnapshotEveryOps
}

// captureSnapshotLocked pulls the graph of a due policy snapshot into
// s.pending. The snapshot is of the state at the log's end, but its position
// has a log offset only once the next timestamp opens — and by then a host has
// moved on — so the graph is captured here and scheduled there. Inside a
// group-commit round (or a shipment) the host applied the whole round before
// the first listener call and is ahead until the last: the pull is refused,
// the policy stays due, and the capture waits for that call. Refused although
// the batch was the host's newest commit, host and log have diverged.
func (s *Store) captureSnapshotLocked() {
	var clock model.Timestamp
	if s.pending, clock = s.pullLocked(); s.pending == nil && clock <= s.lastTS {
		s.mismatches++
	}
}

// scheduleSnapshotLocked hands s.pending — the committed graph at s.lastTS, a
// CoW clone, so the commit path pays O(1) — to the background snapshot
// worker. off is the log offset just past that position: that of the record
// about to be counted.
func (s *Store) scheduleSnapshotLocked(off int64) {
	s.opsSinceSnap = 0
	s.snapWG.Add(1)
	at := fence{pos: position{ts: s.lastTS, seq: s.seq}, off: off}
	s.snaps.put(snapJob{seg: s.active(), g: s.pending, at: at})
}

// WaitSnapshots blocks until all in-flight background snapshots are
// persisted (used by tests and benchmarks).
func (s *Store) WaitSnapshots() { s.snapWG.Wait() }

// CreateSnapshot forces an eager snapshot of the graph at the log's end.
func (s *Store) CreateSnapshot() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Unlike policy snapshots, an eager snapshot may land mid-timestamp
	// (more updates at ts can still arrive), so the graph must NOT enter
	// the GraphStore: the cache only ever holds graphs complete at their
	// timestamp. The file itself is fine — its header carries the exact
	// (ts, seq) position, which chain-floor lookups honour. Everything
	// appended so far is in it, so replay resumes at the log's end. It is
	// always a full: written out of turn, possibly in front of queued policy
	// jobs, it must not depend on a base staying where it was.
	g, err := s.latestLocked(context.Background())
	if err != nil {
		return err
	}
	act := s.active()
	at := fence{pos: position{ts: s.lastTS, seq: s.seq}, off: max(act.log.Size(), logStart)}
	if err := s.persistSnapshot(act, g, at, nil); err != nil {
		return err
	}
	s.opsSinceSnap = 0
	return nil
}

// Stats reports store counters for the benchmark harness.
type Stats struct {
	Updates       uint64
	Snapshots     int // snapshots persisted since Open
	LogBytes      int64
	IndexBytes    int64 // always 0: the fences are memory-only; kept for the consumers that report it
	SnapshotBytes int64 // the active segment's chain files, fulls and deltas
	// SealedPartitions is the number of sealed (immutable) segments;
	// DeltaSnapshots counts the differential elements across all chains, the
	// active one's included; SealedLogBytes / ChainBytes are the sealed
	// segments' on-disk footprints (SealedLogBytes is also folded into
	// LogBytes).
	SealedPartitions int
	DeltaSnapshots   int
	SealedLogBytes   int64
	ChainBytes       int64
	// ReplayedUpdates counts updates applied on top of a base
	// materialization while answering queries — the replay work snapshots
	// and chains could not avoid. The equivalence harness asserts bounded
	// replay with it.
	ReplayedUpdates uint64
	// LoadedEntities counts the entity versions that loading chain elements
	// has produced — a record of a full, the result of a delta record —
	// recovery's included; SharedEntities those for which the committed graph's
	// own object was installed instead of a new one.
	LoadedEntities uint64
	SharedEntities uint64
	// CompactErrors counts failed segment compactions (the segment stays
	// readable via log replay and recompaction retries at reopen);
	// LastCompactError is the most recent failure's message.
	CompactErrors    uint64
	LastCompactError string
	// SnapshotErrors counts failed snapshot persists (background or
	// eager); LastSnapshotError is the most recent failure's message.
	SnapshotErrors    uint64
	LastSnapshotError string
	// LatestPulls counts the times the committed graph was asked for — by a
	// due policy snapshot, an eager one, Latest, a snapshot miss — each of
	// which costs its owner, at its next write, a copy of its vectors'
	// directories and of each chunk that write touches. LatestMismatches
	// counts the due policy snapshots it was refused for although the batch
	// just appended was the host's newest commit: host and log have diverged.
	// SnapshotsOverdue is how many whole policy intervals have gone by since
	// a snapshot fell due without one being taken — 0 in a healthy store; a
	// host whose graph is refused every time shows here.
	LatestPulls      uint64
	LatestMismatches uint64
	SnapshotsOverdue int64
	GraphStore       graphstore.Stats
}

// Stats returns a snapshot of the store's counters and on-disk footprint.
// Element sizes are catalogued with the chains, so collecting stats never
// stats a file while holding s.mu (which would stall the append path), and
// s.mu alone keeps the segment set still (a seal holds it too), so Stats
// never touches sealMu either.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	lastErr, _ := s.lastSnapErr.Load().(string)
	lastCompact, _ := s.lastCompactErr.Load().(string)
	st := Stats{
		Updates:           s.updateCount,
		Snapshots:         int(s.snapshotCount.Load()),
		SealedPartitions:  len(s.segs) - 1,
		ReplayedUpdates:   s.replayed.Load(),
		LoadedEntities:    s.loadedEntities.Load(),
		SharedEntities:    s.sharedEntities.Load(),
		CompactErrors:     s.compactErrs.Load(),
		LastCompactError:  lastCompact,
		SnapshotErrors:    s.snapErrs.Load(),
		LastSnapshotError: lastErr,

		LatestPulls:      s.pulls.Load(),
		LatestMismatches: s.mismatches,
		GraphStore:       s.gs.Stats(),
	}
	if n := s.opts.SnapshotEveryOps; n > 0 {
		st.SnapshotsOverdue = max(int64(s.opsSinceSnap/n)-1, 0)
	}
	for _, g := range s.segs {
		var chainBytes int64
		for _, e := range g.elems() {
			chainBytes += e.size
			if e.kind == enc.DeltaDiff {
				st.DeltaSnapshots++
			}
		}
		st.LogBytes += g.log.Size()
		if g.sealed {
			st.SealedLogBytes += g.log.Size()
			st.ChainBytes += chainBytes
		} else {
			st.SnapshotBytes = chainBytes
		}
	}
	return st
}

// DiskBytes reports the total on-disk footprint (logs + indexes + snapshots
// + sealed chains) for the Fig 10 storage experiment.
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
	s.sealMu.RLock()
	log := s.active().log
	s.sealMu.RUnlock()
	return log.Sync()
}

// Close flushes and closes the store, every segment's log included. The
// background snapshot worker is reaped and every log is closed even when
// the flush fails (e.g. on a failed filesystem), so Close never leaks the
// goroutine or a descriptor.
func (s *Store) Close() error {
	err := s.Flush()
	if s.snaps != nil {
		s.snaps.close()
		<-s.workerDone
		s.snaps = nil
	}
	for _, g := range s.segs {
		err = errors.Join(err, g.log.Close())
	}
	return err
}
