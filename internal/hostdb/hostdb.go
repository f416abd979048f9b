// Package hostdb implements the host graph DBMS that Aion extends,
// standing in for Neo4j (Sec 5.1): a transactional LPG store that maintains
// the current graph version, assigns commit timestamps, persists fixed-size
// entity records plus a retained transaction log (the dominant fragment of
// Neo4j's storage cost in Fig 10), and fires after-commit event listeners —
// the integration point through which Aion receives every change with a
// valid transaction time and the guarantee of a consistent resulting graph.
//
// Transactions provide read-committed isolation: reads see the committed
// graph at operation time plus the transaction's own writes.
package hostdb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"

	"aion/internal/enc"
	"aion/internal/memgraph"
	"aion/internal/model"
	"aion/internal/pagecache"
	"aion/internal/strstore"
	"aion/internal/vfs"
	"aion/internal/wal"
)

// Neo4j store-format record sizes (bytes), used to emulate the host's
// on-disk footprint: nodes 15 B, relationships 34 B, properties 41 B.
const (
	NodeRecordBytes = 15
	RelRecordBytes  = 34
	PropRecordBytes = 41
)

// CommitListener is an after-commit event listener (stage 1 of Fig 4). It
// receives the commit timestamp and all changes applied by the transaction.
type CommitListener func(commitTS model.Timestamp, updates []model.Update)

// Options configures a host database.
type Options struct {
	// Dir is the storage directory; empty means a fresh temp dir ("host" on
	// a caller-supplied FS).
	Dir string
	// SyncCommits fsyncs the transaction log on every commit, as Neo4j
	// does for durability. Ingestion benchmarks enable it so the baseline
	// carries a realistic per-commit cost.
	SyncCommits bool
	// Replica marks this database as a replication follower: local
	// transactions are rejected with ErrReplicaReadOnly and all changes
	// arrive through ApplyShipment, which replays the primary's WAL bytes
	// verbatim.
	Replica bool
	// FS is the filesystem everything is stored on; nil means the real OS
	// filesystem (used by the crash-recovery tests to inject faults).
	FS vfs.FS
}

// DB is the host graph database.
type DB struct {
	opts     Options
	fs       vfs.FS
	mu       sync.RWMutex // guards current
	idMu     sync.Mutex   // guards the node/rel id allocators
	current  *memgraph.Graph
	clock    model.Timestamp
	updates  uint64 // updates committed since genesis (guarded by mu)
	nextNode model.NodeID
	nextRel  model.RelID

	// Group-commit pipeline (ROADMAP item 3): concurrent Tx.Commit callers
	// enqueue under qmu; the first enqueuer becomes leader and drains the
	// queue in rounds, so N concurrent synchronous commits share one WAL
	// batch append, one string-table fsync, and one log fsync.
	qmu     sync.Mutex
	queue   []*commitReq
	leading bool
	// lastGroup is the size of the most recent commit group; leaders only
	// spend scheduler yields waiting for stragglers when recent history
	// shows actual commit concurrency, so a lone committer pays none.
	lastGroup atomic.Int64

	stats struct {
		commits, conflicts, batches, maxBatch, fsyncs atomic.Int64
	}

	strings *strstore.Store
	codec   *enc.Codec
	txnLog  *wal.Log // retained with no truncation, like Neo4j's

	// Fixed-size record stores written through a page cache on every
	// commit, like Neo4j's node/relationship/property store files.
	nodeStore *recordStore
	relStore  *recordStore
	propStore *recordStore

	recordBytes struct {
		sync.Mutex
		nodes, rels, props int64
	}

	listenerMu sync.RWMutex
	listeners  []CommitListener

	// fence is the epoch/role state behind failover fencing (epoch.go).
	fence epochState
}

// Open creates or reopens a host database. Reopening replays the retained
// transaction log to rebuild the current graph. An Open that fails closes
// every file it opened.
func Open(opts Options) (_ *DB, err error) {
	if opts.Dir == "" {
		if opts.FS != nil {
			opts.Dir = "host"
		} else if opts.Dir, err = vfs.MkdirTemp("", "aion-hostdb-*"); err != nil {
			return nil, err
		}
	}
	db := &DB{opts: opts, fs: vfs.OrOS(opts.FS), current: memgraph.New()}
	if err := db.initFence(); err != nil {
		return nil, err
	}
	var opened []func() error // what a failed Open closes again
	defer func() {
		if err != nil {
			for _, c := range opened {
				err = errors.Join(err, c())
			}
		}
	}()
	if db.strings, err = strstore.OpenFS(db.fs, filepath.Join(opts.Dir, "host-strings.db")); err != nil {
		return nil, err
	}
	opened = append(opened, db.strings.Close)
	db.codec = enc.NewCodec(db.strings)
	if db.txnLog, err = wal.OpenFS(db.fs, filepath.Join(opts.Dir, "neostore.transaction.db")); err != nil {
		return nil, err
	}
	opened = append(opened, db.txnLog.Close)
	if db.nodeStore, err = openRecordStore(db.fs, filepath.Join(opts.Dir, "neostore.nodestore.db"), NodeRecordBytes); err != nil {
		return nil, err
	}
	opened = append(opened, db.nodeStore.pc.Close)
	if db.relStore, err = openRecordStore(db.fs, filepath.Join(opts.Dir, "neostore.relationshipstore.db"), RelRecordBytes); err != nil {
		return nil, err
	}
	opened = append(opened, db.relStore.pc.Close)
	if db.propStore, err = openRecordStore(db.fs, filepath.Join(opts.Dir, "neostore.propertystore.db"), PropRecordBytes); err != nil {
		return nil, err
	}
	opened = append(opened, db.propStore.pc.Close)
	// Recovery: replay the transaction log, one record per committed
	// transaction (a torn trailing commit was already truncated by the
	// WAL's tail repair, so commits are recovered atomically). A commit that
	// passed its CRC but does not decode or apply fails the Open: stopping
	// there would drop every later commit the log still holds.
	var rerr error
	_, err = db.txnLog.Scan(0, func(off int64, payload []byte) bool {
		var us []model.Update
		if us, rerr = db.decodeCommit(payload); rerr != nil {
			return false
		}
		for _, u := range us {
			if rerr = db.current.Apply(u); rerr != nil {
				return false
			}
			db.accountRecords(u)
			db.updates++
			if u.TS > db.clock {
				db.clock = u.TS
			}
			if u.Kind.IsNodeOp() && u.NodeID >= db.nextNode {
				db.nextNode = u.NodeID + 1
			}
			if !u.Kind.IsNodeOp() && u.RelID >= db.nextRel {
				db.nextRel = u.RelID + 1
			}
		}
		return true
	})
	if err = errors.Join(err, rerr); err != nil {
		return nil, fmt.Errorf("hostdb: recovery: %w", err)
	}
	// Persist the directory entries of freshly created files: without this
	// a crash right after Open can lose the files' names even though their
	// content was synced.
	if err := db.fs.SyncDir(opts.Dir); err != nil {
		return nil, fmt.Errorf("hostdb: sync dir: %w", err)
	}
	return db, nil
}

// commandEnvelope emulates the fixed per-command byte weight of Neo4j's log
// entries (envelope plus record images, Sec 6.4).
const commandEnvelope = 160

// encodeCommit frames a whole transaction into ONE log record:
//
//	uvarint update count | count x (u32 len | update bytes) | weight filler
//
// The WAL's per-record CRC then covers the entire commit, so a crash can
// only ever lose or keep a transaction wholesale — recovery never sees half
// a commit. The filler repeats every update (a before-image) and adds a
// fixed envelope per command, preserving the Neo4j-like log weight the
// storage experiments rely on.
func (db *DB) encodeCommit(us []model.Update) ([]byte, error) {
	buf := binary.AppendUvarint(make([]byte, 0, 256*len(us)), uint64(len(us)))
	type span struct{ s, e int }
	spans := make([]span, 0, len(us))
	for _, u := range us {
		lenAt := len(buf)
		buf = append(buf, 0, 0, 0, 0)
		var err error
		buf, err = db.codec.AppendUpdate(buf, u)
		if err != nil {
			return nil, err
		}
		binary.LittleEndian.PutUint32(buf[lenAt:lenAt+4], uint32(len(buf)-lenAt-4))
		spans = append(spans, span{s: lenAt + 4, e: len(buf)})
	}
	for _, sp := range spans {
		buf = append(buf, buf[sp.s:sp.e]...) // before-image
	}
	return append(buf, make([]byte, commandEnvelope*len(us))...), nil
}

// decodeCommit is the inverse of encodeCommit (the filler is ignored).
func (db *DB) decodeCommit(payload []byte) ([]model.Update, error) {
	n, w := binary.Uvarint(payload)
	if w <= 0 {
		return nil, fmt.Errorf("hostdb: bad commit record header")
	}
	b := payload[w:]
	// Each update takes at least its 4-byte length: a count the bytes cannot
	// hold is refused before it sizes an allocation.
	if n > uint64(len(b)/4) {
		return nil, fmt.Errorf("hostdb: commit record claims %d updates in %d bytes", n, len(b))
	}
	us := make([]model.Update, 0, n)
	for i := uint64(0); i < n; i++ {
		if len(b) < 4 {
			return nil, fmt.Errorf("hostdb: commit record cut short (update %d/%d)", i, n)
		}
		l := binary.LittleEndian.Uint32(b)
		b = b[4:]
		if uint64(len(b)) < uint64(l) {
			return nil, fmt.Errorf("hostdb: commit record cut short (update %d/%d)", i, n)
		}
		u, err := db.codec.DecodeUpdate(b[:l])
		if err != nil {
			return nil, err
		}
		us = append(us, u)
		b = b[l:]
	}
	return us, nil
}

// peekCommitTS returns a commit's timestamp — its first update's — without
// decoding the commit; an empty commit has none and reports -1.
func peekCommitTS(payload []byte) (model.Timestamp, error) {
	n, w := binary.Uvarint(payload)
	if w <= 0 || (n > 0 && len(payload) < w+4) {
		return -1, fmt.Errorf("hostdb: bad commit record header")
	}
	if n == 0 {
		return -1, nil
	}
	return enc.PeekTS(payload[w+4:])
}

// ReplayCommitted streams every durably committed transaction with commit
// timestamp strictly greater than after, in commit order. The system layer
// uses it at startup to re-feed Aion with transactions the host made
// durable but Aion had not yet synced when the machine crashed.
func (db *DB) ReplayCommitted(after model.Timestamp, fn func(ts model.Timestamp, us []model.Update) error) error {
	var ferr error
	_, err := db.txnLog.Scan(0, func(off int64, payload []byte) bool {
		ts, perr := peekCommitTS(payload) // decode only what is delivered
		if ferr = perr; ferr == nil && ts > after {
			var us []model.Update
			if us, ferr = db.decodeCommit(payload); ferr == nil {
				ferr = fn(ts, us)
			}
		}
		return ferr == nil
	})
	if ferr != nil {
		return ferr
	}
	return err
}

// Flush makes every committed transaction durable: the string table first
// (log records hold positional refs into it), then the transaction log,
// then the record store files.
func (db *DB) Flush() error {
	if err := db.strings.Sync(); err != nil {
		return err
	}
	if err := db.txnLog.Sync(); err != nil {
		return err
	}
	for _, rs := range []*recordStore{db.nodeStore, db.relStore, db.propStore} {
		if err := rs.pc.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// recordStore writes fixed-size records at id*size offsets through a page
// cache, emulating Neo4j's store files (constant-time lookups by record id,
// Sec 4.2). Only the write path matters for the host's cost model; reads go
// through the in-memory graph.
type recordStore struct {
	mu   sync.Mutex
	pc   *pagecache.Cache
	size int64
	next int64 // append cursor for chain-allocated records (properties)
}

func openRecordStore(fs vfs.FS, path string, recordSize int64) (*recordStore, error) {
	pc, err := pagecache.OpenFS(fs, path, 256)
	if err != nil {
		return nil, err
	}
	return &recordStore{pc: pc, size: recordSize}, nil
}

// writeAt stamps the record slot for id (in-use flag + payload position).
func (rs *recordStore) writeAt(id int64) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	off := id * rs.size
	pageID := pagecache.PageID(off / pagecache.PageSize)
	for rs.pc.PageCount() <= uint64(pageID) {
		pid, _, err := rs.pc.Allocate()
		if err != nil {
			return
		}
		rs.pc.Release(pid)
	}
	data, err := rs.pc.Get(pageID)
	if err != nil {
		return
	}
	data[off%pagecache.PageSize] = 1 // in-use flag
	rs.pc.MarkDirty(pageID)
	rs.pc.Release(pageID)
}

// appendRecord allocates the next chain slot (property records).
func (rs *recordStore) appendRecord() {
	rs.mu.Lock()
	id := rs.next
	rs.next++
	rs.mu.Unlock()
	rs.writeAt(id)
}

// accountRecords tracks the fixed-size record bytes a change consumes and
// writes the record slots through the page cache, so every commit pays a
// realistic store-file cost (relationship commands also rewrite both
// endpoint node records, per Neo4j's neighbour-chain format).
func (db *DB) accountRecords(u model.Update) {
	db.recordBytes.Lock()
	switch u.Kind {
	case model.OpAddNode:
		db.recordBytes.nodes += NodeRecordBytes
		db.recordBytes.props += int64(len(u.SetProps)) * PropRecordBytes
	case model.OpAddRel:
		db.recordBytes.rels += RelRecordBytes
		db.recordBytes.props += int64(len(u.SetProps)) * PropRecordBytes
	case model.OpUpdateNode, model.OpUpdateRel:
		db.recordBytes.props += int64(len(u.SetProps)) * PropRecordBytes
	}
	db.recordBytes.Unlock()

	switch u.Kind {
	case model.OpAddNode:
		db.nodeStore.writeAt(int64(u.NodeID))
		for range u.SetProps {
			db.propStore.appendRecord()
		}
	case model.OpAddRel:
		db.relStore.writeAt(int64(u.RelID))
		db.nodeStore.writeAt(int64(u.Src))
		db.nodeStore.writeAt(int64(u.Tgt))
		for range u.SetProps {
			db.propStore.appendRecord()
		}
	case model.OpDeleteNode:
		db.nodeStore.writeAt(int64(u.NodeID))
	case model.OpDeleteRel:
		db.relStore.writeAt(int64(u.RelID))
		db.nodeStore.writeAt(int64(u.Src))
		db.nodeStore.writeAt(int64(u.Tgt))
	case model.OpUpdateNode, model.OpUpdateRel:
		for range u.SetProps {
			db.propStore.appendRecord()
		}
	}
}

// OnCommit registers an after-commit event listener. Listeners run
// synchronously in commit order, after the transaction's changes are
// visible (matching Neo4j's after-commit phase).
func (db *DB) OnCommit(l CommitListener) {
	db.listenerMu.Lock()
	defer db.listenerMu.Unlock()
	db.listeners = append(db.listeners, l)
}

// Clock returns the newest commit timestamp.
func (db *DB) Clock() model.Timestamp {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.clock
}

// Current returns a CoW clone of the latest committed graph (a read
// snapshot).
func (db *DB) Current() *memgraph.Graph {
	g, _, _ := db.Committed()
	return g
}

// Committed returns a CoW clone of the committed graph together with the
// commit timestamp it is complete at and the number of updates committed
// since genesis, all read under one lock so the three describe one state.
// The clone shares every entity object with the host's graph: entities are
// replaced on write, never mutated, so whoever holds the clone may apply
// further updates to it without disturbing the host.
func (db *DB) Committed() (g *memgraph.Graph, clock model.Timestamp, updates uint64) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.current.Clone(), db.clock, db.updates
}

// Counts returns the current node and relationship counts.
func (db *DB) Counts() (nodes, rels int) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.current.NodeCount(), db.current.RelCount()
}

// StorageBreakdown is the host's on-disk footprint by component (Fig 10's
// Neo4j bar: records, property chains, and the retained transaction logs).
type StorageBreakdown struct {
	NodeRecords int64
	RelRecords  int64
	PropRecords int64
	TxnLog      int64
	Strings     int64
}

// Total sums all storage components.
func (b StorageBreakdown) Total() int64 {
	return b.NodeRecords + b.RelRecords + b.PropRecords + b.TxnLog + b.Strings
}

// Storage reports the host's storage breakdown.
func (db *DB) Storage() StorageBreakdown {
	db.recordBytes.Lock()
	b := StorageBreakdown{
		NodeRecords: db.recordBytes.nodes,
		RelRecords:  db.recordBytes.rels,
		PropRecords: db.recordBytes.props,
	}
	db.recordBytes.Unlock()
	b.TxnLog = db.txnLog.Size()
	b.Strings = db.strings.DiskBytes()
	return b
}

// Stats is a snapshot of the commit pipeline's counters.
type Stats struct {
	// Commits is the number of successfully committed non-empty
	// transactions.
	Commits int64
	// Conflicts counts commits aborted by a conflicting concurrent commit.
	Conflicts int64
	// Batches is the number of group-commit rounds; Commits/Batches is the
	// mean group size the pipeline achieved.
	Batches int64
	// MaxBatch is the largest single group committed in one round.
	MaxBatch int64
	// Fsyncs counts fsync syscalls issued on the commit path (string table
	// + transaction log). With SyncCommits, Fsyncs/Commits is the
	// coalescing ratio: 2.0 means no coalescing, < 1 means group commit is
	// amortizing durability across concurrent transactions.
	Fsyncs int64
}

// Stats returns the commit pipeline counters.
func (db *DB) Stats() Stats {
	return Stats{
		Commits:   db.stats.commits.Load(),
		Conflicts: db.stats.conflicts.Load(),
		Batches:   db.stats.batches.Load(),
		MaxBatch:  db.stats.maxBatch.Load(),
		Fsyncs:    db.stats.fsyncs.Load(),
	}
}

// IndexAndMetadataBytes approximates Neo4j's label/token indexes, schema
// store, and graph metadata — the remaining components of its 6-9x on-disk
// expansion over the raw graph (Sec 6.4).
func (db *DB) IndexAndMetadataBytes() int64 {
	nodes, rels := db.Counts()
	return int64(nodes)*24 + int64(rels)*8 + 64<<10
}

// Close flushes and closes the database.
func (db *DB) Close() error {
	return errors.Join(db.txnLog.Close(), db.nodeStore.pc.Close(), db.relStore.pc.Close(),
		db.propStore.pc.Close(), db.strings.Close())
}

// --- transactions -----------------------------------------------------------

// ErrRolledBack is returned when operating on a finished transaction.
var ErrRolledBack = errors.New("hostdb: transaction finished")

// Tx is a read-write transaction. Reads see the committed graph plus the
// transaction's own staged writes, implemented as an overlay over the
// current graph — no snapshot is cloned, which keeps Begin/Commit O(staged
// changes) instead of O(graph). Not safe for concurrent use; run one
// goroutine per transaction.
type Tx struct {
	db      *DB
	updates []model.Update
	done    bool

	// Overlay: staged entity states (nil value = staged deletion) and the
	// staged incident-relationship count delta per node (for the
	// delete-node validation).
	nodes    map[model.NodeID]*model.Node
	rels     map[model.RelID]*model.Rel
	relDelta map[model.NodeID]int
}

// Begin starts a transaction whose reads see the currently committed graph
// plus its own writes.
func (db *DB) Begin() *Tx {
	return &Tx{db: db,
		nodes:    make(map[model.NodeID]*model.Node),
		rels:     make(map[model.RelID]*model.Rel),
		relDelta: make(map[model.NodeID]int),
	}
}

// View runs fn with read access to the committed graph, without cloning.
// fn must not mutate the graph and must not retain the *Graph beyond the
// call; entity pointers read from it stay valid because mutations replace
// entity objects instead of updating them in place.
func (db *DB) View(fn func(g *memgraph.Graph)) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	fn(db.current)
}

// committedNode reads a node from the committed graph.
func (tx *Tx) committedNode(id model.NodeID) *model.Node {
	tx.db.mu.RLock()
	defer tx.db.mu.RUnlock()
	return tx.db.current.Node(id)
}

func (tx *Tx) committedRel(id model.RelID) *model.Rel {
	tx.db.mu.RLock()
	defer tx.db.mu.RUnlock()
	return tx.db.current.Rel(id)
}

func (tx *Tx) committedDegree(id model.NodeID) int {
	tx.db.mu.RLock()
	defer tx.db.mu.RUnlock()
	return len(tx.db.current.Out(id)) + len(tx.db.current.In(id))
}

// stage validates one update against the transaction's view (overlay over
// the committed graph) so violations surface at operation time, like
// Neo4j's API, then records it for commit.
func (tx *Tx) stage(u model.Update) error {
	if tx.done {
		return ErrRolledBack
	}
	switch u.Kind {
	case model.OpAddNode:
		if tx.Node(u.NodeID) != nil {
			return fmt.Errorf("%w: node %d", model.ErrExists, u.NodeID)
		}
		n := &model.Node{ID: u.NodeID, Valid: model.Interval{Start: 0, End: model.TSInfinity}}
		u.ApplyToNode(n)
		tx.nodes[u.NodeID] = n
	case model.OpDeleteNode:
		if tx.Node(u.NodeID) == nil {
			return fmt.Errorf("%w: node %d", model.ErrNotFound, u.NodeID)
		}
		if tx.committedDegree(u.NodeID)+tx.relDelta[u.NodeID] > 0 {
			return fmt.Errorf("%w: node %d", model.ErrHasRels, u.NodeID)
		}
		tx.nodes[u.NodeID] = nil
	case model.OpUpdateNode:
		n := tx.Node(u.NodeID)
		if n == nil {
			return fmt.Errorf("%w: node %d", model.ErrNotFound, u.NodeID)
		}
		c := n.Clone()
		u.ApplyToNode(c)
		tx.nodes[u.NodeID] = c
	case model.OpAddRel:
		if tx.Node(u.Src) == nil || tx.Node(u.Tgt) == nil {
			return fmt.Errorf("%w: rel %d (%d->%d)", model.ErrDangling, u.RelID, u.Src, u.Tgt)
		}
		if tx.Rel(u.RelID) != nil {
			return fmt.Errorf("%w: rel %d", model.ErrExists, u.RelID)
		}
		r := &model.Rel{ID: u.RelID, Src: u.Src, Tgt: u.Tgt, Label: u.RelLabel,
			Valid: model.Interval{Start: 0, End: model.TSInfinity}}
		u.ApplyToRel(r)
		tx.rels[u.RelID] = r
		tx.relDelta[u.Src]++
		tx.relDelta[u.Tgt]++
	case model.OpDeleteRel:
		r := tx.Rel(u.RelID)
		if r == nil {
			return fmt.Errorf("%w: rel %d", model.ErrNotFound, u.RelID)
		}
		tx.rels[u.RelID] = nil
		tx.relDelta[r.Src]--
		tx.relDelta[r.Tgt]--
	case model.OpUpdateRel:
		r := tx.Rel(u.RelID)
		if r == nil {
			return fmt.Errorf("%w: rel %d", model.ErrNotFound, u.RelID)
		}
		c := r.Clone()
		u.ApplyToRel(c)
		tx.rels[u.RelID] = c
	}
	tx.updates = append(tx.updates, u)
	return nil
}

// CreateNode adds a node and returns its id.
func (tx *Tx) CreateNode(labels []string, props model.Properties) (model.NodeID, error) {
	tx.db.idMu.Lock()
	id := tx.db.nextNode
	tx.db.nextNode++
	tx.db.idMu.Unlock()
	return id, tx.stage(model.AddNode(0, id, labels, props))
}

// CreateRel adds a relationship and returns its id.
func (tx *Tx) CreateRel(src, tgt model.NodeID, label string, props model.Properties) (model.RelID, error) {
	tx.db.idMu.Lock()
	id := tx.db.nextRel
	tx.db.nextRel++
	tx.db.idMu.Unlock()
	return id, tx.stage(model.AddRel(0, id, src, tgt, label, props))
}

// CreateNodeWithID adds a node under a caller-chosen id (bulk-import path;
// the allocator is bumped past it). Fails if the id is taken.
func (tx *Tx) CreateNodeWithID(id model.NodeID, labels []string, props model.Properties) error {
	tx.db.idMu.Lock()
	if id >= tx.db.nextNode {
		tx.db.nextNode = id + 1
	}
	tx.db.idMu.Unlock()
	return tx.stage(model.AddNode(0, id, labels, props))
}

// CreateRelWithID adds a relationship under a caller-chosen id.
func (tx *Tx) CreateRelWithID(id model.RelID, src, tgt model.NodeID, label string, props model.Properties) error {
	tx.db.idMu.Lock()
	if id >= tx.db.nextRel {
		tx.db.nextRel = id + 1
	}
	tx.db.idMu.Unlock()
	return tx.stage(model.AddRel(0, id, src, tgt, label, props))
}

// DeleteNode removes a node (which must have no relationships).
func (tx *Tx) DeleteNode(id model.NodeID) error {
	return tx.stage(model.DeleteNode(0, id))
}

// DeleteRel removes a relationship.
func (tx *Tx) DeleteRel(id model.RelID) error {
	r := tx.Rel(id)
	if r == nil {
		return fmt.Errorf("%w: rel %d", model.ErrNotFound, id)
	}
	return tx.stage(model.DeleteRel(0, id, r.Src, r.Tgt))
}

// SetNodeProps sets and/or deletes node properties.
func (tx *Tx) SetNodeProps(id model.NodeID, set model.Properties, del []string) error {
	return tx.stage(model.UpdateNode(0, id, nil, nil, set, del))
}

// SetNodeLabels adds and/or removes node labels.
func (tx *Tx) SetNodeLabels(id model.NodeID, add, remove []string) error {
	return tx.stage(model.UpdateNode(0, id, add, remove, nil, nil))
}

// SetRelProps sets and/or deletes relationship properties.
func (tx *Tx) SetRelProps(id model.RelID, set model.Properties, del []string) error {
	r := tx.Rel(id)
	if r == nil {
		return fmt.Errorf("%w: rel %d", model.ErrNotFound, id)
	}
	return tx.stage(model.UpdateRel(0, id, r.Src, r.Tgt, set, del))
}

// Node reads a node through the transaction (read-your-writes).
func (tx *Tx) Node(id model.NodeID) *model.Node {
	if n, ok := tx.nodes[id]; ok {
		return n
	}
	return tx.committedNode(id)
}

// Rel reads a relationship through the transaction.
func (tx *Tx) Rel(id model.RelID) *model.Rel {
	if r, ok := tx.rels[id]; ok {
		return r
	}
	return tx.committedRel(id)
}

// IncidentRels lists the relationships incident to a node as seen by the
// transaction (committed minus staged deletions plus staged creations).
func (tx *Tx) IncidentRels(id model.NodeID) []model.RelID {
	var out []model.RelID
	tx.db.mu.RLock()
	out = append(out, tx.db.current.Out(id)...)
	out = append(out, tx.db.current.In(id)...)
	tx.db.mu.RUnlock()
	kept := out[:0]
	for _, rid := range out {
		if r, staged := tx.rels[rid]; staged && r == nil {
			continue // staged deletion
		}
		kept = append(kept, rid)
	}
	committed := map[model.RelID]bool{}
	for _, rid := range kept {
		committed[rid] = true
	}
	for rid, r := range tx.rels {
		if r != nil && !committed[rid] && (r.Src == id || r.Tgt == id) {
			kept = append(kept, rid)
		}
	}
	return kept
}

// Rollback abandons the transaction.
func (tx *Tx) Rollback() {
	tx.done = true
	tx.updates = nil
}

// commitReq is one transaction waiting in the group-commit queue. The
// leader fills ts/err and closes done when the whole round — apply, batch
// append, group fsync, listeners — has finished for this transaction.
type commitReq struct {
	updates []model.Update
	ts      model.Timestamp
	err     error
	done    chan struct{}
}

// Commit atomically applies the staged changes through the group-commit
// pipeline: the transaction is enqueued, and either this caller becomes the
// leader — draining the queue and committing every pending transaction in
// one round — or it waits as a follower for a leader to commit on its
// behalf. Either way, on return the transaction's updates are applied and
// stamped, its record is in the retained transaction log (durable when
// SyncCommits is set), and the after-commit listeners have fired with its
// stamped updates, in commit-timestamp order relative to all other
// transactions.
func (tx *Tx) Commit() (model.Timestamp, error) {
	if tx.done {
		return 0, ErrRolledBack
	}
	tx.done = true
	if len(tx.updates) == 0 {
		return tx.db.Clock(), nil
	}
	// Write authority is the LIVE role, not the launch-time Replica flag:
	// a promoted follower commits, a fenced ex-primary never does.
	switch tx.db.Role() {
	case RoleReplica:
		return 0, ErrReplicaReadOnly
	case RoleFenced:
		return 0, ErrFenced
	}
	db := tx.db
	req := &commitReq{updates: tx.updates, done: make(chan struct{})}
	db.qmu.Lock()
	db.queue = append(db.queue, req)
	if db.leading {
		// A leader is active: it (or a successor) will pick this request up
		// in its next round. Wait for the round to complete.
		db.qmu.Unlock()
		<-req.done
		return req.ts, req.err
	}
	// Leader: drain the queue in rounds until it stays empty. Each round
	// commits every queued transaction with one batch append and one
	// strings-sync + one log-sync, then wakes its followers.
	db.leading = true
	for len(db.queue) > 0 {
		batch := db.queue
		db.queue = nil
		db.qmu.Unlock()
		db.commitBatch(batch)
		db.qmu.Lock()
	}
	db.leading = false
	db.qmu.Unlock()
	<-req.done // closed by this leader's own round
	return req.ts, req.err
}

// maxGroupCommit bounds how many transactions one fsync group may absorb,
// so straggler absorption cannot defer durability (and follower wake-up)
// indefinitely under a firehose of committers.
const maxGroupCommit = 4096

// commitBatch commits one group of transactions: conflict-check and apply
// each under db.mu with consecutive timestamps, make the whole group
// durable with a single strings-sync + one log-sync, then fire listeners
// in timestamp order and wake every waiter.
//
// Between the WAL append and the fsync the leader re-checks the queue and
// absorbs transactions that arrived while it was applying (followers wake
// in bursts when the previous round ends, so without absorption most of
// them would just miss the batch cut and pay a whole extra fsync round).
// An empty queue is given a few scheduler yields before the leader gives
// up on it: the woken followers need a slice of CPU to stage their next
// transaction and enqueue, and a handful of microsecond yields is cheap
// against the fsync pair it saves them. Each absorbed sub-batch gets its
// own apply pass and batch append; the group then shares a single sync
// pair.
func (db *DB) commitBatch(batch []*commitReq) {
	// maxAbsorbYields bounds the total scheduler yields one group spends
	// waiting for stragglers, keeping the added commit latency in the low
	// microseconds even when no follower ever shows up.
	const maxAbsorbYields = 16
	group := make([]*commitReq, 0, len(batch))
	var applied [][]model.Update
	var durErr error
	// Yield-waiting only ever pays off when an fsync is on the line and
	// recent rounds actually saw concurrent committers; a lone synchronous
	// committer must not donate scheduler slices to followers that never
	// come.
	maxYields := 0
	if db.opts.SyncCommits && db.lastGroup.Load() >= 2 {
		maxYields = maxAbsorbYields
	}
	yields := 0
	for {
		group = append(group, batch...)
		subApplied, err := db.applyAndAppend(batch)
		applied = append(applied, subApplied...)
		if err != nil {
			durErr = err
			break
		}
		if len(group) >= maxGroupCommit {
			break
		}
		db.qmu.Lock()
		for len(db.queue) == 0 && yields < maxYields {
			db.qmu.Unlock()
			runtime.Gosched()
			yields++
			db.qmu.Lock()
		}
		if len(db.queue) == 0 {
			db.qmu.Unlock()
			break
		}
		batch = db.queue
		db.queue = nil
		db.qmu.Unlock()
	}
	db.lastGroup.Store(int64(len(group)))

	// One strings-sync + one log-sync covers every sub-batch appended
	// above: the record bytes hold positional refs into the string table,
	// so the table must be durable before the log records are.
	if durErr == nil && len(applied) > 0 && db.opts.SyncCommits {
		if durErr = db.strings.Sync(); durErr == nil {
			db.stats.fsyncs.Add(1)
			if durErr = db.txnLog.Sync(); durErr == nil {
				db.stats.fsyncs.Add(1)
			}
		}
	}
	if durErr != nil {
		// The log is fail-stop: no transaction in this group may report
		// success, because none of their records is reliably durable.
		for _, req := range group {
			if req.err == nil {
				req.err = durErr
			}
		}
		for _, req := range group {
			close(req.done)
		}
		return
	}
	batch = group
	for _, us := range applied {
		for _, u := range us {
			db.accountRecords(u)
		}
	}

	// Phase 3 — after-commit listeners (Aion's ingestion entry point), in
	// commit-timestamp order: rounds are serialized by the leader flag and
	// within a round `applied` is already timestamp-ordered.
	db.listenerMu.RLock()
	listeners := db.listeners
	db.listenerMu.RUnlock()
	for _, us := range applied {
		for _, l := range listeners {
			l(us[0].TS, us)
		}
	}

	db.stats.batches.Add(1)
	db.stats.commits.Add(int64(len(applied)))
	for n := int64(len(applied)); ; {
		cur := db.stats.maxBatch.Load()
		if n <= cur || db.stats.maxBatch.CompareAndSwap(cur, n) {
			break
		}
	}
	for _, req := range batch {
		close(req.done)
	}
}

// applyAndAppend runs one sub-batch through apply and the WAL append,
// without syncing. Each transaction conflict-checks against the state left
// by the ones before it (queue order = commit order); a conflict aborts
// only the offending transaction, whose partial application is rolled
// back, and the sub-batch continues. Every committed transaction is framed
// as ONE log record (encodeCommit), so the WAL's tail repair drops a torn
// commit wholesale and recovery never resurrects half a transaction; a
// torn batch write leaves a valid record prefix, so a suffix transaction
// can never survive without the ones committed before it.
func (db *DB) applyAndAppend(batch []*commitReq) ([][]model.Update, error) {
	applied := make([][]model.Update, 0, len(batch))
	db.mu.Lock()
	for _, req := range batch {
		ts := db.clock + 1
		for i := range req.updates {
			req.updates[i].TS = ts
		}
		n := 0
		var err error
		for _, u := range req.updates {
			if err = db.current.Apply(u); err != nil {
				break
			}
			n++
		}
		if err != nil {
			db.rollbackPrefix(req.updates[:n], applied)
			req.err = fmt.Errorf("hostdb: commit conflict: %w", err)
			db.stats.conflicts.Add(1)
			continue
		}
		db.clock = ts
		db.updates += uint64(len(req.updates))
		req.ts = ts
		applied = append(applied, req.updates)
	}
	db.mu.Unlock()

	if len(applied) == 0 {
		return applied, nil
	}
	recs := make([][]byte, 0, len(applied))
	for _, us := range applied {
		rec, err := db.encodeCommit(us)
		if err != nil {
			return applied, err
		}
		recs = append(recs, rec)
	}
	// Encoding interned this batch's strings into the table's user-space
	// buffer; push them to the OS before the log bytes that reference them.
	// The fsync pair after the group (strings before log) orders durability
	// under power loss, but a process crash keeps every completed write and
	// drops the buffer — without this flush a kill -9 here would leave log
	// records in the page cache whose refs dangle on recovery.
	if err := db.strings.Flush(); err != nil {
		return applied, err
	}
	if _, err := db.txnLog.AppendBatch(recs); err != nil {
		return applied, err
	}
	return applied, nil
}

// rollbackPrefix undoes a partially applied update prefix in reverse order.
// batchApplied holds the current group-commit round's already-applied
// transactions, whose records are not yet in the log: when the structural
// undo has to fall back to rebuilding from the log, they are re-applied on
// top so the rebuilt graph matches the committed state. Either way the graph
// is back at the clock: the aborted updates (and the compensating deletes)
// carried the timestamp the transaction would have got, and no reader of
// Current or Committed may see a graph stamped with a commit that never was.
func (db *DB) rollbackPrefix(applied []model.Update, batchApplied [][]model.Update) {
	defer func() { db.current.SetTimestamp(db.clock) }() // a closure: rebuildFromLog replaces db.current
	for i := len(applied) - 1; i >= 0; i-- {
		u := applied[i]
		switch u.Kind {
		case model.OpAddNode:
			_ = db.current.Apply(model.DeleteNode(u.TS, u.NodeID))
		case model.OpAddRel:
			_ = db.current.Apply(model.DeleteRel(u.TS, u.RelID, u.Src, u.Tgt))
		default:
			// Deletions and updates of pre-existing entities cannot be
			// rolled back structurally without their prior state; rebuild
			// from scratch via the log in that rare case.
			db.rebuildFromLog()
			for _, us := range batchApplied {
				for _, bu := range us {
					_ = db.current.Apply(bu)
				}
			}
			return
		}
	}
}

// rebuildFromLog reconstructs the current graph from the transaction log.
func (db *DB) rebuildFromLog() {
	g := memgraph.New()
	db.txnLog.Scan(0, func(off int64, payload []byte) bool {
		if us, err := db.decodeCommit(payload); err == nil {
			for _, u := range us {
				_ = g.Apply(u)
			}
		}
		return true
	})
	db.current = g
}

// Run executes fn inside a transaction, committing on success and rolling
// back on error.
func (db *DB) Run(fn func(tx *Tx) error) (model.Timestamp, error) {
	tx := db.Begin()
	if err := fn(tx); err != nil {
		tx.Rollback()
		return 0, err
	}
	return tx.Commit()
}
