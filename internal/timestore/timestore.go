// Package timestore implements TimeStore (Sec 4.3), Aion's snapshot-based
// temporal store: an append-only log of all graph changes ordered by commit
// timestamp, materializations of the graph placed in that log, and the
// in-memory GraphStore LRU cache to avoid their I/O. Retrieving a graph at
// an arbitrary timestamp fetches the closest materialization and replays
// the forward changes from the log.
//
// On disk the store is one segment directory, p-1/ (segment.go), holding
// updates.log and a chain of .dsnap elements — one file format, whose header
// carries the element's stream position, its base and the log offset replay
// resumes at. One rule shapes the chain: a full materialization, then up to
// Options.DeltaChainLength differential elements, each a header alone that
// names the log window since its predecessor — the window, read from
// updates.log, is its records (delta.go). Appends land in the log, a snapshot
// every Options.SnapshotEveryOps updates (the policy) joins the chain as that
// rule's next element, and a sparse in-memory fence list (laid again from the
// log at Open) turns a stream position into a log offset. There is no
// migration: Open rejects a directory written before this layout — a
// top-level log, or sealed segments — drops any delta that carries records
// (the format before header-only deltas), and reads any chain written since,
// one of fulls only included.
package timestore

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"

	"aion/internal/enc"
	"aion/internal/graphstore"
	"aion/internal/memgraph"
	"aion/internal/model"
	"aion/internal/vfs"
	"aion/internal/wal"
)

// Options configures a TimeStore.
type Options struct {
	// Dir is the directory the segment directory lives under.
	Dir string
	// SnapshotEveryOps is the snapshot policy (operation-based, the paper's
	// default): a snapshot after this many updates. 0 means
	// DefaultSnapshotEveryOps; < 0 takes no policy snapshots.
	SnapshotEveryOps int
	// GraphStoreBytes is the byte budget of the in-memory snapshot cache.
	GraphStoreBytes int64
	// DeltaChainLength is the number of differential policy snapshots
	// between full ones in the chain. 0 picks the default (4); < 0 disables
	// deltas (every chain element is a full materialization).
	DeltaChainLength int
	// FS is the filesystem the store persists through. nil means the real
	// OS filesystem; crash tests substitute a vfstest.FaultFS.
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

	// seg is the segment every append lands in and every read walks. It is
	// set once by Open; its chain and fences have their own leaf lock, so
	// readers take no store lock. Lock order is s.mu, then seg.mu.
	seg *segment

	lastTS        model.Timestamp
	seq           uint32
	opsSinceSnap  int
	updateCount   uint64
	snapshotCount atomic.Int64
	// replayed counts updates applied on top of a base materialization
	// (log records and chain deltas) — the work snapshots could not avoid.
	// The equivalence harness asserts bounded replay with it.
	replayed atomic.Uint64
	encBuf   []byte // append-path scratch, guarded by mu (Sec 5.3)

	// loadedEntities counts the entity versions element files have produced,
	// sharedEntities those of them that are the committed graph's own records.
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

	// Asynchronous snapshot pipeline: policy-triggered snapshots are
	// serialized off the commit path by a background worker. Sec 5.1 has the
	// workers also insert each new snapshot into the GraphStore; here they
	// only persist it, and a graph enters the cache when a query reads it
	// (DESIGN.md, "Key design decisions", item 7).
	snaps      *snapQueue
	workerDone chan struct{}
}

// snapQueue hands policy snapshots to the worker. It has no bound: a snapshot
// falls due, is captured and is queued where the update stream says, however
// far behind the worker is, so the chain's element positions depend on the
// stream alone and the commit path never waits. What a backlog holds is CoW
// clones, each the directories of a graph and the chunks written since it.
// It also counts the jobs not yet persisted, for wait: a sync.WaitGroup may
// not be waited on while a committer adds to it from zero.
type snapQueue struct {
	mu      sync.Mutex
	ready   sync.Cond // a job was put, or the queue closed
	idle    sync.Cond // pending fell to zero
	jobs    []snapJob
	pending int // jobs put and not yet done
	closed  bool
}

func newSnapQueue() *snapQueue {
	q := &snapQueue{}
	q.ready.L, q.idle.L = &q.mu, &q.mu
	return q
}

func (q *snapQueue) put(j snapJob) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.jobs = append(q.jobs, j)
	q.pending++
	q.ready.Signal()
}

// done marks the job take returned last as persisted (or failed).
func (q *snapQueue) done() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.pending--; q.pending == 0 {
		q.idle.Broadcast()
	}
}

// wait blocks until no job is pending: every job put before the call is done,
// and any put meanwhile too.
func (q *snapQueue) wait() {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.pending > 0 {
		q.idle.Wait()
	}
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

// snapJob carries a CoW graph clone to the snapshot worker, which persists
// it and drops it, together with its fence in the log: the exact position —
// (timestamp, seq) of the last update it contains — and the log offset just
// past it. Timestamps alone are ambiguous: more updates at the same
// timestamp may land after the snapshot is scheduled.
type snapJob struct {
	g  *memgraph.Graph
	at fence
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
	if err := checkUnsealed(fs, opts.Dir); err != nil {
		return nil, err
	}
	s := &Store{
		opts:       opts,
		fs:         fs,
		codec:      codec,
		snaps:      newSnapQueue(),
		workerDone: make(chan struct{}),
	}
	if err := s.recover(); err != nil {
		err = fmt.Errorf("timestore: recover: %w", err)
		if s.seg != nil {
			err = errors.Join(err, s.seg.log.Close())
		}
		return nil, err
	}
	go s.snapshotWorker()
	return s, nil
}

// snapshotWorker serializes policy-triggered snapshots in the background,
// each as the element the chain calls for at its position, and drops the
// graph: the GraphStore holds only what queries read. It is the only writer of
// deltas and takes its jobs in position order, so a delta's base is the
// element right before it.
func (s *Store) snapshotWorker() {
	defer close(s.workerDone)
	for {
		j, ok := s.snaps.take()
		if !ok {
			return
		}
		_ = s.persistSnapshot(j.g, j.at, s.seg.deltaBase(j.at.pos, s.opts.DeltaChainLength)) // counted and surfaced through Stats
		s.snaps.done()
	}
}

// persistSnapshot publishes the state g at fence at as an element of the
// chain, the one path behind policy and eager snapshots: a full
// materialization of g, or — when the caller names the base the chain calls
// for there (segment.deltaBase; the snapshot worker only) — a delta. It must
// not take s.mu: a bulk AppendBatch holds s.mu for its whole batch,
// and policy snapshots must keep landing concurrently (the chain has its own
// lock, a delta's window is counted off the log the way queries read it; the
// counters are atomic). Snapshot loss is tolerable (the log still covers the
// range), but never silent: a failure is counted, surfaced through Stats, and
// returned.
func (s *Store) persistSnapshot(g *memgraph.Graph, at fence, base *chainElem) error {
	e, err := s.writeSnapshot(g, at, base)
	if err == nil {
		if old := s.seg.insert(e); old != "" { // the other kind's file name at this position
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

// writeSnapshot writes g in full, or — on base — a delta: the header naming
// the log window between base's fence and at, which holds its records.
// Nothing past at.off is read, and nothing is decoded: the window's records
// are counted off its frames' count prefixes, and a bad one fails the write.
func (s *Store) writeSnapshot(g *memgraph.Graph, at fence, base *chainElem) (chainElem, error) {
	if base == nil {
		us := g.Export()
		return s.writeChainElem(enc.DeltaFull, at.pos, position{}, at.off, uint64(len(us)), us)
	}
	var n uint64
	var cerr error
	_, err := s.seg.log.ScanRange(base.logOff, at.off, replayReadahead, func(frames []wal.Frame) bool {
		for _, fr := range frames {
			c, _, err := enc.BlockCount(fr.Payload)
			if err != nil {
				cerr = fmt.Errorf("timestore: delta window frame at %d of %s: %w", fr.Off, s.seg.log.Path(), err)
				return false
			}
			n += uint64(c)
		}
		return true
	})
	if err = errors.Join(err, cerr); err != nil {
		return chainElem{}, err
	}
	return s.writeChainElem(enc.DeltaDiff, at.pos, base.pos, at.off, n, nil)
}

// fenceStride is how many log records share one fence at least. Fences
// sit at frame starts only, the first frame at least fenceStride records past
// the previous fence, so a lookup discards fewer than fenceStride records plus
// one frame before the one it wants: at 128 that is half of replay's ctx
// stride (replayStride), while the list costs 24 B per 128 updates of memory
// and a lock once per 128 appended records.
// A constant in production; a variable only so tests can shrink it.
var fenceStride = 128

// advanceLocked moves the stream position past one frame of the log —
// n records at timestamp ts, at log offset off — fencing the frame when it
// opens a stride, and counts its records. It is the one bookkeeping step
// shared by AppendBatch and recovery's walk, so both lay identical fences.
// Caller holds s.mu (or is Open, before the store is shared).
func (s *Store) advanceLocked(ts model.Timestamp, off int64, n int) {
	g := s.seg
	cur := position{ts: s.lastTS, seq: s.seq}
	if g.count >= g.nextFence {
		g.mu.Lock()
		g.fences = append(g.fences, fence{pos: cur, off: off})
		g.mu.Unlock()
		g.nextFence = g.count + uint64(fenceStride)
	}
	cur = cur.next(ts)
	s.lastTS, s.seq = cur.ts, cur.seq+uint32(n-1)
	s.updateCount += uint64(n)
	g.count += uint64(n)
}

// recover rebuilds all derived state from the sources of truth a crash
// cannot corrupt: the tail-repaired log and the element files'
// self-describing headers (openSegment). Every frame of the log is walked, to
// count its records and lay the fences, off its count prefix and its first
// record's timestamp: nothing is decoded. A hosted store needs no more: it
// loads and decodes nothing. A stand-alone one seeds its own graph from the
// newest surviving element of the chain — else the empty graph — and decodes
// and applies the log from that element's offset on.
func (s *Store) recover() (err error) {
	ctx := context.Background()
	if s.seg, err = openSegment(s.fs, s.opts.Dir); err != nil {
		return err
	}
	s.lastTS, s.seq = genesis.ts, genesis.seq
	chain := s.seg.elems()
	from := logStart // log offset the replay applies from
	if len(chain) > 0 {
		from = chain[len(chain)-1].logOff
	}
	var perr error
	_, err = s.seg.log.Scan(logStart, func(off int64, frame []byte) bool {
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
		latest := memgraph.New()
		latest.SetTimestamp(genesis.ts)
		if len(chain) > 0 {
			if latest, err = s.loadElem(ctx, chain, len(chain)-1, nil, nil); err != nil {
				return err
			}
		}
		var aerr error
		err = s.replayWal(ctx, from, logEnd, func(_ int64, u model.Update) bool {
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
	// Everything Open created (the segment directory, its log) and derivation
	// deleted reaches the directory before the store takes a write.
	return s.syncSegmentNames()
}

// ownGraph is what a stand-alone store has in a host's place: the graph
// every append is applied to, behind the signature of hostdb.DB.Committed. Its
// lock is a leaf — a query takes it while an append holds s.mu.
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
// catch up. The graph is the caller's own handle, sharing every entity record
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
// holds s.mu.
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
	if s.seg.log.Size() == 0 {
		frames = append([][]byte{[]byte(logMarker)}, payloads...) // in front of the log's first frame
	}
	offs, err := s.seg.log.AppendBatch(frames)
	if err != nil {
		return err
	}
	offs = offs[len(frames)-len(payloads):]
	for i, run := range runs {
		ts := run[0].TS
		// Timestamp boundary: the position of the graph captured when the last
		// timestamp ended now has a log offset, this frame's.
		if ts > s.lastTS && s.pending != nil && s.seg.count > 0 {
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
		// mid-timestamp, no (ts) query could take the element for the graph at
		// its timestamp, nor a reader cache it.
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
	at := fence{pos: position{ts: s.lastTS, seq: s.seq}, off: off}
	s.snaps.put(snapJob{g: s.pending, at: at})
}

// WaitSnapshots blocks until all in-flight background snapshots are
// persisted (used by tests and benchmarks), appends landing meanwhile or not.
func (s *Store) WaitSnapshots() { s.snaps.wait() }

// CreateSnapshot forces an eager snapshot of the graph at the log's end.
func (s *Store) CreateSnapshot() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Unlike policy snapshots, an eager snapshot may land mid-timestamp
	// (more updates at ts can still arrive); a reader that loads it caches it
	// only if it turns out complete (elemComplete). The file itself is fine —
	// its header carries the exact (ts, seq) position, which chain-floor
	// lookups honour. Everything appended so far is in it, so replay resumes
	// at the log's end. It is always a full: written out of turn, possibly in
	// front of queued policy jobs, it must not depend on a base staying where
	// it was.
	g, err := s.latestLocked(context.Background())
	if err != nil {
		return err
	}
	at := fence{pos: position{ts: s.lastTS, seq: s.seq}, off: max(s.seg.log.Size(), logStart)}
	if err := s.persistSnapshot(g, at, nil); err != nil {
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
	SnapshotBytes int64 // the chain files, fulls and deltas
	// DeltaSnapshots counts the chain's differential elements.
	DeltaSnapshots int
	DeltaBytes     int64 // the deltas' share of SnapshotBytes
	StringBytes    int64 // the codec's string table, shared in a hybrid store
	// ReplayedUpdates counts updates applied on top of a base
	// materialization while answering queries — the replay work snapshots
	// and chains could not avoid. The equivalence harness asserts bounded
	// replay with it.
	ReplayedUpdates uint64
	// LoadedEntities counts the entity versions that loading chain elements
	// has produced — a record of a full, the result of a delta record —
	// recovery's included; SharedEntities those for which the committed graph's
	// own record was installed instead of a new one.
	LoadedEntities uint64
	SharedEntities uint64
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
	// RepairedLogBytes and RepairedStringBytes are the torn-tail bytes Open
	// cut from the update log and the string table: 0 after a clean close.
	RepairedLogBytes, RepairedStringBytes int64
}

// Stats returns a snapshot of the store's counters and on-disk footprint.
// Element sizes are catalogued with the chain, so collecting stats never
// stats a file while holding s.mu (which would stall the append path).
func (s *Store) Stats() Stats {
	strBytes := s.codec.Strings.DiskBytes() // before s.mu: it walks the table
	s.mu.Lock()
	defer s.mu.Unlock()
	lastErr, _ := s.lastSnapErr.Load().(string)
	st := Stats{
		StringBytes:       strBytes,
		Updates:           s.updateCount,
		Snapshots:         int(s.snapshotCount.Load()),
		LogBytes:          s.seg.log.Size(),
		ReplayedUpdates:   s.replayed.Load(),
		LoadedEntities:    s.loadedEntities.Load(),
		SharedEntities:    s.sharedEntities.Load(),
		SnapshotErrors:    s.snapErrs.Load(),
		LastSnapshotError: lastErr,

		LatestPulls:      s.pulls.Load(),
		LatestMismatches: s.mismatches,
		GraphStore:       s.gs.Stats(),

		RepairedLogBytes:    s.seg.log.RepairedBytes(),
		RepairedStringBytes: s.codec.Strings.RepairedBytes(),
	}
	if n := s.opts.SnapshotEveryOps; n > 0 {
		st.SnapshotsOverdue = max(int64(s.opsSinceSnap/n)-1, 0)
	}
	for _, e := range s.seg.elems() {
		st.SnapshotBytes += e.size
		if e.kind == enc.DeltaDiff {
			st.DeltaSnapshots++
			st.DeltaBytes += e.size
		}
	}
	return st
}

// DiskBytes reports the total on-disk footprint (log + indexes + snapshots)
// for the Fig 10 storage experiment.
func (s *Store) DiskBytes() int64 {
	st := s.Stats()
	return st.LogBytes + st.IndexBytes + st.SnapshotBytes
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
	s.snaps.wait()
	if err := s.codec.Strings.Sync(); err != nil {
		return err
	}
	return s.seg.log.Sync()
}

// Close flushes and closes the store, its log included. The background
// snapshot worker is reaped and the log is closed even when the flush fails
// (e.g. on a failed filesystem), so Close never leaks the goroutine or a
// descriptor.
func (s *Store) Close() error {
	err := s.Flush()
	s.snaps.close()
	<-s.workerDone
	return errors.Join(err, s.seg.log.Close())
}
