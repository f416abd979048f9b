// Package lineagestore implements LineageStore (Sec 4.4), Aion's
// fine-grained temporal store: graph updates indexed by entity identifier
// using four B+Trees (Table 2) — nodes, relationships, out-neighbours and
// in-neighbours. Composite keys order first by entity id and then by
// timestamp, so an entity's full history lands in the same or adjacent
// pages and is retrieved with O(log n) seeks plus a short range scan.
//
// Updates are stored in place either as deltas or as fully materialized
// entities. A delta chain threshold (Fig 11; default 4) bounds how many
// deltas may accumulate before the store writes a materialized record,
// trading ~16 % extra storage for fast version reconstruction.
package lineagestore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

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
	// Dir is the directory for the four index files. It must exist.
	Dir string
	// ChainThreshold is the maximum delta-chain length before
	// materialization; 0 means DefaultChainThreshold, negative disables
	// materialization entirely (pure delta chains, the Fig 11 "32" end).
	ChainThreshold int
	// IndexCachePages is the per-tree page cache budget.
	IndexCachePages int
	// FS is the filesystem the index files live on; nil means the real OS
	// filesystem (used by the crash-recovery tests to inject faults).
	FS vfs.FS
}

func (o *Options) defaults() {
	if o.ChainThreshold == 0 {
		o.ChainThreshold = DefaultChainThreshold
	}
	if o.IndexCachePages <= 0 {
		o.IndexCachePages = 1024
	}
}

// indexFiles are the four on-disk B+Tree files, in fixed order.
var indexFiles = [4]string{"nodes.idx", "rels.idx", "out.idx", "in.idx"}

// Store is a LineageStore instance. Writes are serialized; reads may run
// concurrently with each other.
type Store struct {
	mu    sync.RWMutex
	opts  Options
	fs    vfs.FS
	codec *enc.Codec

	nodes *btree.Tree // KeyNode(id, ts)            -> [chainPos][update record]
	rels  *btree.Tree // KeyRel(id, ts)             -> [chainPos][update record]
	out   *btree.Tree // KeyNeigh4(src, tgt, ts, r) -> NeighValue(r, deleted)
	in    *btree.Tree // KeyNeigh4(tgt, src, ts, r) -> NeighValue(r, deleted)
	pcs   [4]*pagecache.Cache

	lastTS      model.Timestamp
	updateCount uint64
	reset       bool // Open found corrupt indexes and started fresh
}

// Open creates or reopens a LineageStore in opts.Dir. The LineageStore is
// derived data — every record it holds is reconstructible from the
// TimeStore log — so if the index files are corrupt (a crash tore B+Tree
// pages mid-flush) Open resets them to empty instead of failing: the owner
// rebuilds or re-cascades, and queries fall back to the TimeStore meanwhile.
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
	if err := s.openTrees(); err != nil {
		// Corrupt index files: wipe and start empty.
		if werr := s.Wipe(); werr != nil {
			return nil, fmt.Errorf("lineagestore: open: %v; reset failed: %w", err, werr)
		}
		s.reset = true
	}
	return s, nil
}

// openTrees opens the four index trees; on failure everything already
// opened is closed again.
func (s *Store) openTrees() error {
	trees := [4]**btree.Tree{&s.nodes, &s.rels, &s.out, &s.in}
	for i, name := range indexFiles {
		path := filepath.Join(s.opts.Dir, name)
		// A file cut mid-page is a crash artifact: the B+Tree cannot be
		// trusted even if the early pages parse.
		if sz, err := s.fs.Stat(path); err == nil && sz%pagecache.PageSize != 0 {
			return errors.Join(fmt.Errorf("lineagestore: open %s: truncated mid-page (%d bytes)", name, sz), s.closeTrees())
		}
		pc, err := pagecache.OpenFS(s.fs, path, s.opts.IndexCachePages)
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
	return nil
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
	s.nodes, s.rels, s.out, s.in = nil, nil, nil, nil
	return err
}

// Wipe discards the on-disk indexes and reopens the store empty. Used for
// corruption recovery and by owners that rebuild the LineageStore from the
// TimeStore log after a reopen.
func (s *Store) Wipe() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Close errors are ignored deliberately: the indexes are corrupt and
	// about to be deleted, so a failed final flush carries no information.
	_ = s.closeTrees()
	for _, name := range indexFiles {
		if err := s.fs.Remove(filepath.Join(s.opts.Dir, name)); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	//aionlint:ignore lockio corruption-recovery path: the wipe must be exclusive with every reader and writer, and runs once per corrupt reopen, not on the serving path
	if err := s.fs.SyncDir(s.opts.Dir); err != nil {
		return err
	}
	s.lastTS, s.updateCount = -1, 0
	return s.openTrees()
}

// Reset reports whether Open found corrupt index files and wiped them.
func (s *Store) Reset() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.reset
}

// AppliedThrough returns the newest timestamp the store has absorbed. As
// LineageStore is updated asynchronously off the commit path (Sec 5.1), it
// may lag the TimeStore; Aion falls back to the TimeStore for queries past
// this point.
func (s *Store) AppliedThrough() model.Timestamp {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.lastTS
}

// Apply indexes one committed update by its entity identifiers.
func (s *Store) Apply(u model.Update) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applyLocked(u)
}

// ApplyBatch indexes a batch of updates under one lock acquisition.
func (s *Store) ApplyBatch(us []model.Update) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, u := range us {
		if err := s.applyLocked(u); err != nil {
			return err
		}
	}
	return nil
}

func (s *Store) applyLocked(u model.Update) error {
	if u.TS < s.lastTS {
		return fmt.Errorf("lineagestore: %w: ts %d after %d", model.ErrNonMonotonic, u.TS, s.lastTS)
	}
	switch u.Kind {
	case model.OpAddNode, model.OpDeleteNode:
		if err := s.putVersion(s.nodes, enc.KeyNode(u.NodeID, u.TS), 0, u); err != nil {
			return err
		}
	case model.OpUpdateNode:
		if err := s.putNodeDelta(u); err != nil {
			return err
		}
	case model.OpAddRel:
		if err := s.putVersion(s.rels, enc.KeyRel(u.RelID, u.TS), 0, u); err != nil {
			return err
		}
		if err := s.out.Put(enc.KeyNeigh4(u.Src, u.Tgt, u.TS, u.RelID), enc.NeighValue(u.RelID, false)); err != nil {
			return err
		}
		if err := s.in.Put(enc.KeyNeigh4(u.Tgt, u.Src, u.TS, u.RelID), enc.NeighValue(u.RelID, false)); err != nil {
			return err
		}
	case model.OpDeleteRel:
		if err := s.putVersion(s.rels, enc.KeyRel(u.RelID, u.TS), 0, u); err != nil {
			return err
		}
		if err := s.out.Put(enc.KeyNeigh4(u.Src, u.Tgt, u.TS, u.RelID), enc.NeighValue(u.RelID, true)); err != nil {
			return err
		}
		if err := s.in.Put(enc.KeyNeigh4(u.Tgt, u.Src, u.TS, u.RelID), enc.NeighValue(u.RelID, true)); err != nil {
			return err
		}
	case model.OpUpdateRel:
		if err := s.putRelDelta(u); err != nil {
			return err
		}
	default:
		return fmt.Errorf("lineagestore: unknown op %v", u.Kind)
	}
	s.lastTS = u.TS
	s.updateCount++
	return nil
}

// putVersion stores a version record with the given delta-chain position.
func (s *Store) putVersion(tree *btree.Tree, key []byte, chainPos int, u model.Update) error {
	buf := make([]byte, 1, 64)
	buf[0] = byte(chainPos)
	buf, err := s.codec.AppendUpdate(buf, u)
	if err != nil {
		return err
	}
	return tree.Put(key, buf)
}

// putNodeDelta stores a node modification, materializing the full state
// when the delta chain reaches the threshold.
func (s *Store) putNodeDelta(u model.Update) error {
	prevPos, n, err := s.reconstructNodeLocked(u.NodeID, u.TS)
	if err != nil {
		return err
	}
	if n == nil {
		return fmt.Errorf("lineagestore: %w: node %d at ts %d", model.ErrNotFound, u.NodeID, u.TS)
	}
	pos := prevPos + 1
	if s.opts.ChainThreshold > 0 && pos >= s.opts.ChainThreshold {
		// Materialize: fold the delta into the reconstructed state and
		// store it as a full record (chain position resets to 0).
		u.ApplyToNode(n)
		m := model.AddNode(u.TS, n.ID, n.Labels, n.Props)
		return s.putVersion(s.nodes, enc.KeyNode(u.NodeID, u.TS), 0, m)
	}
	return s.putVersion(s.nodes, enc.KeyNode(u.NodeID, u.TS), pos, u)
}

// putRelDelta stores a relationship modification, materializing on
// threshold like putNodeDelta.
func (s *Store) putRelDelta(u model.Update) error {
	prevPos, r, err := s.reconstructRelLocked(u.RelID, u.TS)
	if err != nil {
		return err
	}
	if r == nil {
		return fmt.Errorf("lineagestore: %w: rel %d at ts %d", model.ErrNotFound, u.RelID, u.TS)
	}
	pos := prevPos + 1
	if s.opts.ChainThreshold > 0 && pos >= s.opts.ChainThreshold {
		u.ApplyToRel(r)
		m := model.AddRel(u.TS, r.ID, r.Src, r.Tgt, r.Label, r.Props)
		return s.putVersion(s.rels, enc.KeyRel(u.RelID, u.TS), 0, m)
	}
	return s.putVersion(s.rels, enc.KeyRel(u.RelID, u.TS), pos, u)
}

// Stats reports store counters for the benchmark harness.
type Stats struct {
	Updates    uint64
	IndexBytes int64
}

// Stats returns the store's counters and footprint.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Stats{
		Updates:    s.updateCount,
		IndexBytes: s.DiskBytes(),
	}
}

// DiskBytes reports the total on-disk footprint of the four indexes
// (Fig 10 storage accounting).
func (s *Store) DiskBytes() int64 {
	return s.nodes.DiskBytes() + s.rels.DiskBytes() + s.out.DiskBytes() + s.in.DiskBytes()
}

// Flush persists all four indexes.
func (s *Store) Flush() error {
	for _, t := range []*btree.Tree{s.nodes, s.rels, s.out, s.in} {
		if err := t.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// Close flushes the indexes and releases their page-cache files; the
// files are released even when the flush fails. The store is unusable
// afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return errors.Join(s.Flush(), s.closeTrees())
}
