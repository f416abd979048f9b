// Package lineagestore implements LineageStore (Sec 4.4), Aion's
// fine-grained temporal store: graph updates indexed by entity identifier
// in three B+Trees. Composite keys order first by entity and then by
// timestamp, so an entity's full history lands in the same or adjacent
// pages and is retrieved with one seek plus a short range scan:
//
//	nodes.idx    (node, ts)          -> a node's version records
//	outrels.idx  (src, rel, ts)      -> a relationship's version records, under its source
//	in.idx       (tgt, rel, ts)      -> src and the deletion flag
//
// Unlike Table 2, which keeps relationship versions by id beside two
// neighbour trees, the versions are clustered under their source node: a
// node's outgoing relationships with their histories are one key range, so
// an outgoing expand is one descent and one forward scan, and there is no
// out-neighbour tree. An incoming expand scans in.idx and descends once per
// relationship into its source's cluster. A point read by relationship id
// finds the cluster in an in-memory source index, which Open rebuilds from
// in.idx (its values name every event's source), and descends once.
//
// Updates are stored in place either as deltas or as fully materialized
// entities. A delta chain threshold (Fig 11; default 4) bounds how many
// deltas may accumulate before the store writes a materialized record,
// trading ~16 % extra storage for fast version reconstruction.
//
// The indexes are derived data with a clean-shutdown checkpoint, under one
// invariant: the checkpoint file is on disk only while the three index files
// are durably the image of exactly the log prefix it names. Close publishes
// it after all three trees are fsynced and only if no apply or catch-up has
// failed since Open (a skipped update leaves trees that match no prefix);
// the first Apply, ApplyBatch or Wipe afterwards makes its removal durable
// before a tree page can be written; one that fails its CRC, that CatchUp
// finds ahead of the owner's log, or that does not lead to the log's end,
// counts as absent. A crash while trees are being written thus finds no
// checkpoint and rebuilds, which is why B+Tree pages need no checksum.
package lineagestore

import (
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	"aion/internal/btree"
	"aion/internal/enc"
	"aion/internal/model"
	"aion/internal/pagecache"
	"aion/internal/vfs"
)

// DefaultChainThreshold is the delta-chain length at which an entity
// version is materialized; four strikes the paper's best balance (Sec 6.5).
const DefaultChainThreshold = 4

// Options configures a LineageStore.
type Options struct {
	// Dir is the directory for the three index files. It must exist.
	Dir string
	// ChainThreshold is the maximum delta-chain length before
	// materialization; 0 means DefaultChainThreshold, negative disables
	// materialization entirely (pure delta chains, the Fig 11 "32" end).
	ChainThreshold int
	// FS is the filesystem the index files live on; nil means the real OS
	// filesystem (used by the crash-recovery tests to inject faults).
	FS vfs.FS
}

func (o *Options) defaults() {
	if o.ChainThreshold == 0 {
		o.ChainThreshold = DefaultChainThreshold
	}
}

// indexFiles are the three on-disk B+Tree files, in fixed order.
var indexFiles = [3]string{"nodes.idx", "outrels.idx", "in.idx"}

// retiredFiles are index files an older format kept and this one does not:
// a rebuild deletes them with the current ones.
var retiredFiles = []string{"out.idx", "rels.idx"}

// Store is a LineageStore instance. Writes are serialized; reads may run
// concurrently with each other.
type Store struct {
	mu    sync.RWMutex
	opts  Options
	fs    vfs.FS
	codec *enc.Codec

	nodes   *btree.Tree // KeyNode(id, ts)              -> [chainPos][version record]
	outRels *btree.Tree // KeyIncident(src, r, ts)      -> [chainPos][version record, src left to the key]
	in      *btree.Tree // KeyIncident(tgt, r, ts)      -> IncomingValue(deleted, src)
	pcs     [3]*pagecache.Cache
	srcs    sourceIndex // which clusters hold each relationship id's versions

	lastTS      model.Timestamp
	atLastTS    uint64 // updates applied at lastTS
	updateCount uint64
	caughtUp    uint64 // updates CatchUp applied
	failed      bool   // an apply or catch-up failed: the trees may match no log prefix
	// clean: the checkpoint on disk names this state, no page dirtied since (atomic for the lock-free DiskBytes).
	clean   atomic.Bool
	scratch []byte // the write path's key and record buffer, under mu
}

// Open creates or reopens a LineageStore in opts.Dir. The LineageStore is
// derived data — every record it holds is reconstructible from the
// TimeStore log — so if the index files are corrupt (a crash tore B+Tree
// pages mid-flush) Open resets them to empty instead of failing: the owner
// rebuilds or re-cascades.
func Open(codec *enc.Codec, opts Options) (*Store, error) {
	opts.defaults()
	if opts.Dir == "" {
		if opts.FS != nil {
			opts.Dir = "lineage"
		} else {
			dir, err := vfs.MkdirTemp("", "aion-lineage-*")
			if err != nil {
				return nil, err
			}
			opts.Dir = dir
		}
	}
	s := &Store{opts: opts, fs: vfs.OrOS(opts.FS), codec: codec, lastTS: -1}
	s.readCheckpoint() // before the trees: a corruption wipe must remove it
	err := s.openTrees()
	switch {
	case err != nil: // corrupt index files
	case !s.clean.Load() && s.holdsData():
		err = errors.New("lineagestore: open: index files no checkpoint names") // a crash's, or an older format's
	default:
		err = s.loadSources()
	}
	if err != nil {
		if werr := s.Wipe(); werr != nil {
			return nil, fmt.Errorf("lineagestore: open: %v; reset failed: %w", err, werr)
		}
	}
	return s, nil
}

// openTrees opens the three index trees and empties the source index; on
// failure everything already opened is closed again.
func (s *Store) openTrees() error {
	trees := [3]**btree.Tree{&s.nodes, &s.outRels, &s.in}
	for i, name := range indexFiles {
		path := filepath.Join(s.opts.Dir, name)
		// A file cut mid-page is a crash artifact: the B+Tree cannot be
		// trusted even if the early pages parse.
		sz, err := s.fs.Stat(path)
		if err == nil && sz%pagecache.PageSize != 0 {
			return errors.Join(fmt.Errorf("lineagestore: open %s: truncated mid-page (%d bytes)", name, sz), s.closeTrees())
		}
		pc, err := pagecache.OpenFS(s.fs, path)
		if err == nil {
			var tree *btree.Tree
			if tree, err = btree.Open(pc); err == nil {
				s.pcs[i], *trees[i] = pc, tree
				continue
			}
			err = errors.Join(err, pc.Close())
		}
		return errors.Join(fmt.Errorf("lineagestore: open %s: %w", name, err), s.closeTrees())
	}
	s.srcs.reset()
	return nil
}

// loadSources rebuilds the source index from in.idx, whose values name every
// event's source; on failure the trees are closed.
func (s *Store) loadSources() error {
	var bad error
	err := s.in.Scan(nil, nil, func(k, v []byte) bool {
		_, rel, _, kok := enc.ParseKeyIncident(k)
		_, src, vok := enc.ParseIncomingValue(v)
		if !kok || !vok {
			bad = errCorrupt
			return false
		}
		s.srcs.add(rel, src)
		return true
	})
	if err = cmp.Or(err, bad); err != nil {
		return errors.Join(fmt.Errorf("lineagestore: open in.idx: %w", err), s.closeTrees())
	}
	return nil
}

// sourceIndex names, for each relationship id, the sources whose clusters
// hold its versions — one, unless CreateRelWithID brought the id back under
// another source. Ids are dense, so a slot per id in a vector answers in one
// load (as memgraph's id vectors do); the map holds what fits no slot. It
// has its own lock, held per insertion, because readers do not take s.mu.
type sourceIndex struct {
	mu    sync.RWMutex
	dense []uint32                       // src+1 by relationship id; 0: none
	many  map[model.RelID][]model.NodeID // ids past dense, sources >= MaxUint32, and ids seen under two sources
}

func (x *sourceIndex) reset() {
	x.mu.Lock()
	x.dense, x.many = nil, map[model.RelID][]model.NodeID{}
	x.mu.Unlock()
}

// add records that src's cluster holds versions of rel.
func (x *sourceIndex) add(rel model.RelID, src model.NodeID) {
	x.mu.Lock()
	defer x.mu.Unlock()
	srcs := x.many[rel]
	if srcs == nil && rel >= 0 && rel < model.RelID(len(x.dense)) && x.dense[rel] != 0 {
		old := model.NodeID(x.dense[rel] - 1)
		if old == src {
			return
		}
		srcs, x.dense[rel] = []model.NodeID{old}, 0
	}
	// An id within twice the vector's length (+64 Ki) grows it; one further
	// out, as CreateRelWithID may choose, goes to the map.
	if srcs == nil && src >= 0 && src < math.MaxUint32 && rel >= 0 && int64(rel) < 2*int64(len(x.dense))+1<<16 {
		for len(x.dense) <= int(rel) { // one append at a time: append(make) allocates each time under -race
			x.dense = append(x.dense, 0)
		}
		x.dense[rel] = uint32(src + 1)
	} else if !slices.Contains(srcs, src) {
		x.many[rel] = append(srcs, src)
	}
}

// sources appends rel's sources to dst.
func (x *sourceIndex) sources(dst []source, rel model.RelID) []source {
	x.mu.RLock()
	defer x.mu.RUnlock()
	if rel >= 0 && rel < model.RelID(len(x.dense)) && x.dense[rel] != 0 {
		return append(dst, source{rel, model.NodeID(x.dense[rel] - 1)})
	}
	for _, src := range x.many[rel] {
		dst = append(dst, source{rel, src})
	}
	return dst
}

// closeTrees tears down every open page cache, reporting the first flush
// or close failure (the caller decides whether that is fatal: fatal on
// the open path, surfaced on Wipe).
func (s *Store) closeTrees() error {
	var err error
	for i := range s.pcs {
		if s.pcs[i] != nil {
			err = errors.Join(err, s.pcs[i].Close())
			s.pcs[i] = nil
		}
	}
	s.nodes, s.outRels, s.in = nil, nil, nil
	return err
}

// Wipe discards the on-disk indexes — the checkpoint first — and reopens the
// store empty. Used by Open for trees it cannot trust, and by CatchUp for
// trees that are no prefix of the owner's log.
func (s *Store) Wipe() error {
	err := s.invalidate()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		return err
	}
	s.clean.Store(false)
	// Close errors are ignored deliberately: the indexes are corrupt and
	// about to be deleted, so a failed final flush carries no information.
	_ = s.closeTrees()
	for _, name := range append(indexFiles[:], retiredFiles...) {
		if err := s.fs.Remove(filepath.Join(s.opts.Dir, name)); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	//aionlint:ignore lockio corruption-recovery path: the wipe must be exclusive with every reader and writer, and runs once per corrupt reopen, not on the serving path
	if err := s.fs.SyncDir(s.opts.Dir); err != nil {
		return err
	}
	s.lastTS, s.atLastTS, s.updateCount, s.failed = -1, 0, 0, false
	return s.openTrees()
}

// The checkpoint file: magic | lastTS | atLastTS | updateCount | crc.
const (
	checkpointName  = "checkpoint"
	checkpointMagic = "ALC6" // ALC1: fixed-width keys; ALC2: 4-byte cell lengths, values repeating their key; ALC3: 4-byte refs; ALC4: relationship versions keyed by id, out.idx; ALC5: rels.idx; CatchUp rebuilds such trees
	checkpointLen   = 4 + 8*3 + 4
)

// readCheckpoint restores the position a clean Close published; a missing,
// short or corrupt file leaves the store at -1, for the owner to rebuild.
func (s *Store) readCheckpoint() {
	f, err := s.fs.Open(filepath.Join(s.opts.Dir, checkpointName))
	if err != nil {
		return
	}
	var b [checkpointLen]byte
	_, err = f.ReadAt(b[:], 0)
	if err = errors.Join(err, f.Close()); err != nil || string(b[:4]) != checkpointMagic ||
		crc32.ChecksumIEEE(b[:checkpointLen-4]) != binary.BigEndian.Uint32(b[checkpointLen-4:]) {
		return
	}
	s.lastTS = model.Timestamp(binary.BigEndian.Uint64(b[4:]))
	s.atLastTS = binary.BigEndian.Uint64(b[12:])
	s.updateCount = binary.BigEndian.Uint64(b[20:])
	s.clean.Store(true)
}

// publishLocked writes the checkpoint; the caller just fsynced all three trees.
func (s *Store) publishLocked() error {
	b := append(make([]byte, 0, checkpointLen), checkpointMagic...)
	b = binary.BigEndian.AppendUint64(b, uint64(s.lastTS))
	b = binary.BigEndian.AppendUint64(b, s.atLastTS)
	b = binary.BigEndian.AppendUint64(b, s.updateCount)
	b = binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	return vfs.PublishFile(s.fs, filepath.Join(s.opts.Dir, checkpointName), b)
}

// invalidate removes the checkpoint, durably, before the caller writes its
// first tree page since Open (a page written is the file's, which the kernel
// may write back at once). It runs before the caller takes s.mu, so readers
// never wait on its fsync; it is idempotent, and the caller clears clean
// under s.mu only once it succeeded — a failure leaves clean set, and the
// next writer tries again.
func (s *Store) invalidate() error {
	if !s.clean.Load() {
		return nil
	}
	if err := s.fs.Remove(filepath.Join(s.opts.Dir, checkpointName)); err != nil && !os.IsNotExist(err) {
		return err
	}
	return s.fs.SyncDir(s.opts.Dir)
}

// CatchUp brings the store to the end of its owner's log at Open: logged is
// the log's update count, scan streams its updates with timestamp >= from in
// commit order. A checkpoint not ahead of the log resumes after its position
// (skipping the updates at lastTS it holds); one ahead of the log, or a
// resume that does not end at exactly the log's end, wipes and replays it
// all. Without a checkpoint Open has left the trees empty.
func (s *Store) CatchUp(logged uint64, scan func(from model.Timestamp, fn func(model.Update) bool) error) error {
	s.mu.RLock()
	rebuild := s.updateCount > logged
	from, skip, start := s.lastTS, s.atLastTS, s.updateCount
	s.mu.RUnlock()
	for {
		if rebuild {
			if err := s.Wipe(); err != nil {
				return err
			}
			from, skip, start = -1, 0, 0
		}
		var aerr error
		err := scan(max(from, 0), func(u model.Update) bool {
			if u.TS == from && skip > 0 {
				skip--
				return true
			}
			aerr = s.Apply(u)
			return aerr == nil
		})
		s.mu.Lock()
		s.caughtUp = s.updateCount - start
		if err = errors.Join(err, aerr); err == nil && s.updateCount != logged {
			err = fmt.Errorf("lineagestore: caught up to %d updates, the log holds %d", s.updateCount, logged)
		}
		s.failed = s.failed || err != nil
		s.mu.Unlock()
		if err == nil || rebuild {
			return err
		}
		rebuild = true // the trees were no prefix of this log
	}
}

// holdsData reports whether any tree has an entry on disk (or cannot say).
func (s *Store) holdsData() bool {
	for _, t := range []*btree.Tree{s.nodes, s.outRels, s.in} {
		if _, _, ok, err := t.First(); ok || err != nil {
			return true
		}
	}
	return false
}

// AppliedThrough returns the newest timestamp the store has absorbed. As
// LineageStore is updated asynchronously off the commit path (Sec 5.1), it
// may lag the TimeStore; a read past this point waits for the cascade.
func (s *Store) AppliedThrough() model.Timestamp {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.lastTS
}

// Apply indexes one committed update by its entity identifiers.
func (s *Store) Apply(u model.Update) error { return s.ApplyBatch([]model.Update{u}) }

// ApplyBatch indexes a batch of updates under one lock acquisition. Any
// failure past the monotonicity check bars the checkpoint until a Wipe: that
// update is missing or half there, and a later one may still apply.
func (s *Store) ApplyBatch(us []model.Update) error {
	err := s.invalidate()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err == nil {
		s.clean.Store(false)
	}
	for i := 0; err == nil && i < len(us); i++ {
		u := us[i]
		if u.TS < s.lastTS {
			return fmt.Errorf("lineagestore: %w: ts %d after %d", model.ErrNonMonotonic, u.TS, s.lastTS)
		}
		if err = s.indexLocked(u); err == nil {
			if u.TS != s.lastTS {
				s.lastTS, s.atLastTS = u.TS, 0
			}
			s.atLastTS++
			s.updateCount++
		}
	}
	s.failed = s.failed || err != nil
	return err
}

// indexLocked writes u into the trees it belongs to. A relationship's
// insertion or deletion is a version record in its source's cluster and an
// entry in its target's in-neighbour range; an insertion also names the
// cluster in the source index, for point reads by id — before the record is
// there, so a reader that meets the record finds its cluster.
func (s *Store) indexLocked(u model.Update) error {
	switch u.Kind {
	case model.OpAddNode, model.OpDeleteNode:
		e := nodeEntity(u.NodeID)
		return s.putVersion(s.nodes, &e, 0, u)
	case model.OpUpdateNode:
		e := nodeEntity(u.NodeID)
		return putDelta(s, &nodeLineage, &e, u)
	case model.OpAddRel, model.OpDeleteRel:
		if u.Kind == model.OpAddRel {
			s.srcs.add(u.RelID, u.Src)
		}
		e := relEntity(u.Src, u.RelID)
		if err := s.putVersion(s.outRels, &e, 0, u); err != nil {
			return err
		}
		key := enc.AppendKeyIncident(s.scratch[:0], u.Tgt, u.RelID, u.TS)
		s.scratch = enc.AppendIncomingValue(key, u.Kind == model.OpDeleteRel, u.Src)
		return s.in.Put(key, s.scratch[len(key):])
	case model.OpUpdateRel:
		e := relEntity(u.Src, u.RelID)
		return putDelta(s, &relLineage, &e, u)
	}
	return fmt.Errorf("lineagestore: unknown op %v", u.Kind)
}

// putVersion stores u in the nodes or the relationship tree as entity e's
// version record with the given delta-chain position; the key holds e and
// u.TS, the record neither. Key and record are built in the one store-owned
// buffer; the tree copies them into its page.
func (s *Store) putVersion(tree *btree.Tree, e *entity, chainPos int, u model.Update) error {
	key := enc.AppendKeyTS(append(s.scratch[:0], e.prefix()...), u.TS)
	buf, err := s.codec.AppendVersion(append(key, byte(chainPos)), u)
	if err != nil {
		return err
	}
	s.scratch = buf
	return tree.Put(buf[:len(key)], buf[len(key):])
}

// chainHead reads the head bytes of e's newest record at or before ts in
// tree: its delta-chain position, and whether the entity is live there (the
// record is its own and not a tombstone). A live record at ts itself holds an
// earlier change of the same commit: only that one is decoded, into same.
func (s *Store) chainHead(tree *btree.Tree, e *entity, ts model.Timestamp) (pos int, live bool, same *model.Update, err error) {
	c := tree.Cursor()
	defer c.Close()
	if !c.SeekFloor(enc.AppendKeyTS(append(s.scratch[:0], e.prefix()...), ts)) {
		return 0, false, nil, c.Err()
	}
	kts, pos, rec, own, err := cell(&c, e)
	if err != nil || !own {
		return 0, false, nil, err
	}
	deleted, _ := enc.PeekState(rec)
	if live = !deleted; live && kts == ts {
		u, err := s.codec.DecodeVersion(rec, e.src, e.id, ts)
		return pos, live, &u, err
	}
	return pos, live, nil, nil
}

// putDelta stores a modification of entity e as the next link of its delta
// chain, or — when the chain reaches the threshold — folded into the
// reconstructed state as a full record, which restarts the chain at 0. A
// change in the commit of the chain's head shares its key: the head takes it
// in and keeps its kind and chain position.
func putDelta[T any](s *Store, l *lineage[T], e *entity, u model.Update) error {
	tree := l.tree(s)
	pos, live, same, err := s.chainHead(tree, e, u.TS)
	if err == nil && !live {
		err = fmt.Errorf("lineagestore: %w: %s %d at ts %d", model.ErrNotFound, l.name, e.id, u.TS)
	}
	if err != nil {
		return err
	}
	if same != nil {
		model.MergeUpdates(same, u)
		return s.putVersion(tree, e, pos, *same)
	}
	if pos++; s.opts.ChainThreshold > 0 && pos >= s.opts.ChainThreshold {
		vs, err := history(context.Background(), s, l, e, u.TS, u.TS)
		if err != nil || len(vs) != 1 {
			return cmp.Or(err, errCorrupt)
		}
		l.fold(u, vs[0])
		u, pos = l.full(u.TS, vs[0]), 0
	}
	return s.putVersion(tree, e, pos, u)
}

// Stats reports store counters for the benchmark harness.
type Stats struct {
	Updates    uint64
	IndexBytes int64
	CaughtUp   uint64          // re-applied by CatchUp at Open: 0 after a clean Close
	Cache      pagecache.Stats // page accesses of the three trees, summed
	Trees      [3]TreeStats    // in indexFiles order
}

// TreeStats is one index tree's file: the pages and bytes of its row in
// make disk-budget's table.
type TreeStats struct {
	Name  string
	Pages uint64
	Bytes int64
}

// Stats returns the store's counters and footprint.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{Updates: s.updateCount, IndexBytes: s.DiskBytes(), CaughtUp: s.caughtUp}
	for i, pc := range s.pcs {
		st.Trees[i].Name = indexFiles[i]
		if pc == nil { // a failed Wipe left no trees
			continue
		}
		st.Cache.Hits += pc.Stats().Hits
		st.Trees[i].Pages, st.Trees[i].Bytes = pc.PageCount(), pc.DiskBytes()
	}
	return st
}

// DiskBytes reports the total on-disk footprint of the three indexes and
// the checkpoint (Fig 10 storage accounting).
func (s *Store) DiskBytes() int64 {
	n := s.nodes.DiskBytes() + s.outRels.DiskBytes() + s.in.DiskBytes()
	if s.clean.Load() {
		n += checkpointLen
	}
	return n
}

// Flush persists all three indexes.
func (s *Store) Flush() error {
	for _, t := range []*btree.Tree{s.nodes, s.outRels, s.in} {
		if err := t.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// Close flushes and fsyncs the indexes, publishes the checkpoint unless an
// apply failed (a store untouched since Open keeps its own and writes
// nothing), and releases the files even when the flush fails.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	if !s.clean.Load() && s.nodes != nil { // nil: a failed Wipe left no trees to flush
		if err = s.Flush(); err == nil && !s.failed {
			err = s.publishLocked()
		}
	}
	return errors.Join(err, s.closeTrees())
}
