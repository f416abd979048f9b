// Time-partitioned history (ROADMAP item 1). The TimeStore's log is split
// into sealed, immutable time partitions: when the active log accumulates
// Options.PartitionEvery updates it is sealed — moved under an epoch
// directory p-<n>/ together with a marker file that commits the seal — and
// a fresh, empty active log takes its place on the hot write path. Each
// sealed partition is then compacted into a chain of full and differential
// snapshots (delta.go) so GetGraph inside old history replays only its own
// partition's chain, never the whole log. Everything here follows the
// store's derive-don't-trust recovery contract: the only durable facts are
// the partition logs, the marker files, and the chain files' self-
// describing headers; recovery re-derives the rest and rolls back or
// recompacts anything a crash left half-done.
package timestore

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"aion/internal/enc"
	"aion/internal/memgraph"
	"aion/internal/model"
	"aion/internal/vfs"
	"aion/internal/wal"
)

// position identifies an exact point in the global update stream: the
// state complete through sequence seq at timestamp ts. seq == seqComplete
// means the position covers every update at ts (sealing and chain cuts
// happen only at timestamp boundaries, so sealed positions are always
// complete; active snapshot files carry their exact seq in the filename).
type position struct {
	ts  model.Timestamp
	seq uint32
}

// seqComplete marks a position that covers all updates at its timestamp.
const seqComplete = ^uint32(0)

// next is the position of a record at timestamp ts that directly follows
// position p in the stream.
func (p position) next(ts model.Timestamp) position {
	if ts == p.ts {
		return position{ts: ts, seq: p.seq + 1}
	}
	return position{ts: ts}
}

// chainElem is one persisted materialization: an element of a sealed
// partition's snapshot chain, derived from the .dsnap file's self-describing
// header at recovery, or an active snapshot file in the Store's catalogue
// (always a full; only kind, pos and path are meaningful there).
type chainElem struct {
	kind   enc.DeltaKind
	pos    position // complete through this position
	base   position // for DeltaDiff: the element this delta applies on
	logOff int64    // partition-log offset of the first uncovered record
	count  uint64   // update records in the file
	path   string
}

// chainFloor returns the index of the newest element at or before ts in a
// position-sorted element list, or -1: the one floor lookup behind sealed
// chains and the active snapshot catalogue alike.
func chainFloor(chain []chainElem, ts model.Timestamp) int {
	return sort.Search(len(chain), func(k int) bool { return chain[k].pos.ts > ts }) - 1
}

// sealedPart is an immutable sealed partition: its own log segment, the
// marker-committed bounds, and the compacted snapshot chain (nil while
// compaction is pending or failed — reads then fall back to log replay).
type sealedPart struct {
	dir      string
	minTS    model.Timestamp // timestamp of the partition's first update
	maxTS    model.Timestamp // timestamp of the partition's last update
	entryTS  model.Timestamp // position the partition's history starts after
	entrySeq uint32
	endSeq   uint32 // seq of the last update (at maxTS)
	count    uint64 // updates in the partition log
	log      *wal.Log
	chain    []chainElem // guarded by Store.sealMu
}

func partDirName(n int) string { return fmt.Sprintf("p-%d", n) }

// chainFileName names a chain element by kind and the (ts, seq) position it
// is complete through, mirroring snapFileName's two's-complement hex form
// so the -1 genesis entry sorts and parses cleanly.
func chainFileName(kind enc.DeltaKind, pos position) string {
	return fmt.Sprintf("%s-%016x-%08x.dsnap", kind, uint64(pos.ts), pos.seq)
}

// parseChainName extracts (kind, position) from a chainFileName.
func parseChainName(name string) (enc.DeltaKind, position, bool) {
	kind := enc.DeltaFull
	rest := ""
	switch {
	case strings.HasPrefix(name, "full-"):
		rest = name[len("full-"):]
	case strings.HasPrefix(name, "delta-"):
		kind, rest = enc.DeltaDiff, name[len("delta-"):]
	default:
		return 0, position{}, false
	}
	if !strings.HasSuffix(rest, ".dsnap") {
		return 0, position{}, false
	}
	mid := rest[:len(rest)-len(".dsnap")]
	if len(mid) != 16+1+8 || mid[16] != '-' {
		return 0, position{}, false
	}
	ts, err := strconv.ParseUint(mid[:16], 16, 64)
	if err != nil {
		return 0, position{}, false
	}
	seq, err := strconv.ParseUint(mid[17:], 16, 32)
	if err != nil {
		return 0, position{}, false
	}
	return kind, position{ts: model.Timestamp(ts), seq: uint32(seq)}, true
}

// --- seal marker -------------------------------------------------------------

// partMarkerName is the file whose presence commits a seal: a partition
// directory without it is an aborted seal and is rolled back at recovery.
const partMarkerName = "sealed"

// partMagic identifies a seal marker ("Aion Partition Marker v1").
var partMagic = [4]byte{'A', 'P', 'M', '1'}

// partMarker is the fixed-width, CRC-protected content of the marker file.
type partMarker struct {
	minTS    model.Timestamp
	maxTS    model.Timestamp
	entryTS  model.Timestamp
	entrySeq uint32
	endSeq   uint32
	count    uint64
}

const partMarkerLen = 4 + 8*3 + 4 + 4 + 8 + 4

func encodePartMarker(m partMarker) []byte {
	b := make([]byte, 0, partMarkerLen)
	b = append(b, partMagic[:]...)
	b = binary.BigEndian.AppendUint64(b, uint64(m.minTS))
	b = binary.BigEndian.AppendUint64(b, uint64(m.maxTS))
	b = binary.BigEndian.AppendUint64(b, uint64(m.entryTS))
	b = binary.BigEndian.AppendUint32(b, m.entrySeq)
	b = binary.BigEndian.AppendUint32(b, m.endSeq)
	b = binary.BigEndian.AppendUint64(b, m.count)
	return binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

func decodePartMarker(b []byte) (partMarker, error) {
	var m partMarker
	if len(b) != partMarkerLen {
		return m, fmt.Errorf("timestore: seal marker is %d bytes, want %d", len(b), partMarkerLen)
	}
	for i, c := range partMagic {
		if b[i] != c {
			return m, fmt.Errorf("timestore: bad seal marker magic %q", b[:4])
		}
	}
	body, sum := b[:partMarkerLen-4], binary.BigEndian.Uint32(b[partMarkerLen-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return m, fmt.Errorf("timestore: seal marker checksum mismatch")
	}
	m.minTS = model.Timestamp(binary.BigEndian.Uint64(b[4:]))
	m.maxTS = model.Timestamp(binary.BigEndian.Uint64(b[12:]))
	m.entryTS = model.Timestamp(binary.BigEndian.Uint64(b[20:]))
	m.entrySeq = binary.BigEndian.Uint32(b[28:])
	m.endSeq = binary.BigEndian.Uint32(b[32:])
	m.count = binary.BigEndian.Uint64(b[36:])
	return m, nil
}

// writePartMarker persists the marker with synced content; the caller's
// directory sync makes the name durable, which is the seal's commit point.
func writePartMarker(fs vfs.FS, dir string, m partMarker) (err error) {
	f, err := fs.Create(filepath.Join(dir, partMarkerName))
	if err != nil {
		return err
	}
	defer vfs.CloseChecked(f, &err)
	if _, err := f.WriteAt(encodePartMarker(m), 0); err != nil {
		return err
	}
	return f.Sync()
}

func readPartMarker(fs vfs.FS, path string) (partMarker, error) {
	f, err := fs.Open(path)
	if err != nil {
		return partMarker{}, err
	}
	var buf [partMarkerLen + 1]byte
	n, err := f.ReadAt(buf[:], 0)
	if cerr := f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil && err != io.EOF {
		return partMarker{}, err
	}
	return decodePartMarker(buf[:n])
}

// --- recovery ----------------------------------------------------------------

// recoverPartitions probes p-1, p-2, ... for committed seal markers,
// opening each sealed partition's log and deriving its snapshot chain from
// the chain files actually on disk. The first directory without a durable
// marker is an aborted seal: its log (if any) is moved back to the active
// position and stray files are removed, restoring the exact pre-seal
// layout. Runs before the active log is opened, because the rollback may
// have to reinstate it.
func recoverPartitions(fs vfs.FS, dir string) ([]*sealedPart, error) {
	var parts []*sealedPart
	for n := 1; ; n++ {
		pdir := filepath.Join(dir, partDirName(n))
		markerPath := filepath.Join(pdir, partMarkerName)
		if _, err := fs.Stat(markerPath); err != nil {
			if !os.IsNotExist(err) {
				return nil, err
			}
			if err := rollbackHalfSeal(fs, dir, pdir); err != nil {
				return nil, err
			}
			return parts, nil
		}
		m, err := readPartMarker(fs, markerPath)
		if err != nil {
			return nil, fmt.Errorf("timestore: partition %s: %w", pdir, err)
		}
		wantEntry := position{ts: -1, seq: 0}
		if n > 1 {
			prev := parts[n-2]
			wantEntry = position{ts: prev.maxTS, seq: prev.endSeq}
		}
		if m.entryTS != wantEntry.ts || m.entrySeq != wantEntry.seq {
			return nil, fmt.Errorf("timestore: partition %s entry (%d,%d) does not continue (%d,%d)",
				pdir, m.entryTS, m.entrySeq, wantEntry.ts, wantEntry.seq)
		}
		plog, err := wal.OpenFS(fs, filepath.Join(pdir, "updates.log"))
		if err != nil {
			return nil, fmt.Errorf("timestore: partition %s log: %w", pdir, err)
		}
		p := &sealedPart{
			dir: pdir, minTS: m.minTS, maxTS: m.maxTS,
			entryTS: m.entryTS, entrySeq: m.entrySeq, endSeq: m.endSeq,
			count: m.count, log: plog,
		}
		if err := deriveChain(fs, p); err != nil {
			return nil, err
		}
		parts = append(parts, p)
	}
}

// rollbackHalfSeal undoes a seal that crashed before its marker became
// durable: the moved log is reinstated as the active log and everything
// else in the aborted partition directory is removed. If the crash fell
// between the rename becoming durable in pdir and the top-level directory
// sync, the log is durable under *both* names with identical content (the
// old name's directory entry was never dropped), so the partition copy is
// simply deleted.
func rollbackHalfSeal(fs vfs.FS, dir, pdir string) error {
	names, err := fs.ReadDir(pdir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	touched := false
	for _, name := range names {
		full := filepath.Join(pdir, name)
		if name == "updates.log" {
			if _, serr := fs.Stat(filepath.Join(dir, "updates.log")); serr == nil {
				if err := fs.Remove(full); err != nil {
					return err
				}
			} else if err := fs.Rename(full, filepath.Join(dir, "updates.log")); err != nil {
				return err
			}
		} else if err := fs.Remove(full); err != nil {
			return err
		}
		touched = true
	}
	if touched {
		// The reinstating rename into dir is made durable by Open's final
		// top-level SyncDir; this persists the removals inside pdir.
		return fs.SyncDir(pdir)
	}
	return nil
}

// deriveChain rebuilds p.chain from the chain files present in p.dir,
// trusting only their self-describing headers. Leftover *.tmp files are
// removed; so is any file whose header is unreadable or disagrees with its
// name, and any delta whose base element is not the previously accepted
// element — the orphaned-delta case: a crash (or a deleted mid-chain full)
// leaves deltas whose base is gone, and applying one to the wrong base
// would silently corrupt materialization. A surviving chain is kept only
// if it is complete — entry full through the marker's end position —
// otherwise all of it is dropped and the caller recompacts from the log.
func deriveChain(fs vfs.FS, p *sealedPart) error {
	names, err := fs.ReadDir(p.dir)
	if err != nil {
		return err
	}
	var cands []chainElem
	removed := false
	for _, name := range names {
		if name == "updates.log" || name == partMarkerName {
			continue
		}
		full := filepath.Join(p.dir, name)
		if strings.HasSuffix(name, ".tmp") {
			if err := fs.Remove(full); err != nil {
				return err
			}
			removed = true
			continue
		}
		kind, pos, ok := parseChainName(name)
		if !ok {
			continue
		}
		hdr, herr := readChainHeader(fs, full)
		if herr != nil || hdr.Kind != kind || hdr.TS != pos.ts || hdr.Seq != pos.seq {
			// Torn, corrupt, or misnamed element: useless and unsafe to keep.
			if err := fs.Remove(full); err != nil {
				return err
			}
			removed = true
			continue
		}
		cands = append(cands, chainElem{
			kind: kind, pos: pos,
			base:   position{ts: hdr.BaseTS, seq: hdr.BaseSeq},
			logOff: hdr.LogOff, count: hdr.Count, path: full,
		})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].pos != cands[j].pos {
			return cands[i].pos.before(cands[j].pos)
		}
		return cands[i].kind == enc.DeltaFull && cands[j].kind != enc.DeltaFull
	})
	var chain []chainElem
	for _, c := range cands {
		switch {
		case c.kind == enc.DeltaFull:
			chain = append(chain, c) // a full stands alone
		case len(chain) > 0 && chain[len(chain)-1].pos == c.base:
			chain = append(chain, c) // delta extends the accepted chain
		default:
			// Orphaned delta: its base was dropped (or never durable).
			if err := fs.Remove(c.path); err != nil {
				return err
			}
			removed = true
		}
	}
	if !chainComplete(p, chain) {
		for _, c := range chain {
			if err := fs.Remove(c.path); err != nil {
				return err
			}
			removed = true
		}
		chain = nil
	}
	p.chain = chain
	if removed {
		return fs.SyncDir(p.dir)
	}
	return nil
}

// chainComplete reports whether chain covers the partition exactly: it
// starts with the entry full (the state *before* the partition's first
// update, shared with the previous partition's end) and its last element
// is complete through the marker's end position.
func chainComplete(p *sealedPart, chain []chainElem) bool {
	if len(chain) == 0 {
		return false
	}
	first, last := chain[0], chain[len(chain)-1]
	return first.kind == enc.DeltaFull &&
		first.pos == (position{ts: p.entryTS, seq: p.entrySeq}) &&
		first.logOff == 0 &&
		last.pos == (position{ts: p.maxTS, seq: p.endSeq})
}

// --- sealing -----------------------------------------------------------------

// sealActiveLocked seals the active partition. Caller holds s.mu. A seal
// failure is sticky (s.sealErr): the directory may be mid-surgery, so the
// store goes fail-stop for writes — the same contract as a failed append —
// while reads keep working and a reopen rolls the half-seal back.
func (s *Store) sealActiveLocked() error {
	if s.sealErr != nil {
		return s.sealErr
	}
	if err := s.doSeal(); err != nil {
		s.sealErr = fmt.Errorf("timestore: seal: %w", err)
		return s.sealErr
	}
	return nil
}

func (s *Store) doSeal() error {
	// No snapshot writes may race the directory surgery, and no new jobs
	// can be scheduled while s.mu is held.
	s.snapWG.Wait()
	dir := s.opts.Dir
	pdir := filepath.Join(dir, partDirName(len(s.parts)+1))
	m := partMarker{
		minTS:    s.activeMinTS,
		maxTS:    s.lastTS,
		entryTS:  s.entryTS,
		entrySeq: s.entrySeq,
		endSeq:   s.seq,
		count:    uint64(s.activeCount),
	}
	p, err := s.sealSurgery(dir, pdir, m)
	if err != nil {
		return err
	}
	// Compact outside sealMu: readers may proceed against the chainless
	// partition (plain log replay) while the chain is built. The chain is
	// an accelerator, not a correctness requirement — on failure the error
	// is recorded in Stats and recovery recompacts at the next open.
	entry := s.sealEntry
	s.sealEntry = nil
	cerr := fmt.Errorf("timestore: no entry state for %s", pdir)
	var end *memgraph.Graph
	if entry != nil {
		end, cerr = s.compactPartition(context.Background(), p, entry)
	}
	if cerr != nil {
		s.recordCompactError(cerr)
		// The next partition still needs its entry state: the latest graph
		// is exactly the sealed end (the new active log is empty).
		end = s.gs.Latest()
	}
	s.sealEntry = end
	return nil
}

// sealSurgery performs the on-disk transition under sealMu: makes the
// active log durable, retires the per-active derived state, moves the log
// under the partition directory, commits the seal with the marker, and
// installs a fresh empty active log with an empty fence list. The open log
// handle stays valid across the rename, so the sealed segment is never
// reopened.
func (s *Store) sealSurgery(dir, pdir string, m partMarker) (*sealedPart, error) {
	s.sealMu.Lock()
	defer s.sealMu.Unlock()
	// 1. The log becomes the partition's immutable segment: fully durable
	// first, strings before the log bytes that reference them. The fsyncs
	// below run under sealMu by design — a seal is a rare (every
	// PartitionEvery updates) stop-the-world transition, and readers must
	// never observe the half-swapped active state.
	//aionlint:ignore lockio seal surgery must exclude readers for its whole durable transition
	if err := s.codec.Strings.Sync(); err != nil {
		return nil, err
	}
	//aionlint:ignore lockio seal surgery must exclude readers for its whole durable transition
	if err := s.log.Sync(); err != nil {
		return nil, err
	}
	// 2. Drop the catalogued snapshot files, which the partition's chain
	// supersedes.
	for _, e := range s.resetSnapshots() {
		if sz, serr := s.fs.Stat(e.path); serr == nil {
			s.snapshotBytes.Add(-sz)
		}
		if err := s.fs.Remove(e.path); err != nil && !os.IsNotExist(err) {
			return nil, err
		}
	}
	// 3. Move the log into the epoch directory.
	if err := vfs.MkdirAll(s.fs, pdir); err != nil {
		return nil, err
	}
	if err := s.fs.Rename(filepath.Join(dir, "updates.log"), filepath.Join(pdir, "updates.log")); err != nil {
		return nil, err
	}
	//aionlint:ignore lockio seal surgery must exclude readers for its whole durable transition
	if err := s.fs.SyncDir(pdir); err != nil {
		return nil, err
	}
	// 4. The marker commits the seal: once its name is durable, recovery
	// treats the partition as sealed; before that, it rolls the move back.
	if err := writePartMarker(s.fs, pdir, m); err != nil {
		return nil, err
	}
	//aionlint:ignore lockio seal surgery must exclude readers for its whole durable transition
	if err := s.fs.SyncDir(pdir); err != nil {
		return nil, err
	}
	// 5. Fresh active log under the original name.
	newLog, err := wal.OpenFS(s.fs, filepath.Join(dir, "updates.log"))
	if err != nil {
		return nil, err
	}
	// One top-level sync publishes the whole transition: the log's renamed-
	// away old name and the fresh log file. Until it runs, a crash
	// resurrects the old directory state — which recovery handles via the
	// marker (sealed: stale pre-seal records in the resurfaced active log
	// are skipped) or its absence (rollback).
	//aionlint:ignore lockio seal surgery must exclude readers for its whole durable transition
	if err := s.fs.SyncDir(dir); err != nil {
		return nil, err
	}
	p := &sealedPart{
		dir: pdir, minTS: m.minTS, maxTS: m.maxTS,
		entryTS: m.entryTS, entrySeq: m.entrySeq, endSeq: m.endSeq,
		count: m.count, log: s.log,
	}
	s.log = newLog
	s.resetFences() // they indexed the sealed segment
	s.parts = append(s.parts, p)
	s.sealedCount.Add(1)
	s.sealedLogBytes.Add(p.log.Size())
	s.entryTS, s.entrySeq = p.maxTS, p.endSeq
	s.activeCount = 0
	s.opsSinceSnap, s.bytesSinceSnap = 0, 0
	return p, nil
}

// recordCompactError publishes a compaction failure for Stats.
func (s *Store) recordCompactError(err error) {
	s.compactErrs.Add(1)
	s.lastCompactErr.Store(err.Error())
}

// floorElem finds the newest chain element at or before ts across the
// sealed partitions. Caller holds sealMu (either mode).
func (s *Store) floorElem(ts model.Timestamp) (*sealedPart, int, bool) {
	for i := len(s.parts) - 1; i >= 0; i-- {
		p := s.parts[i]
		if len(p.chain) == 0 {
			continue
		}
		if j := chainFloor(p.chain, ts); j >= 0 {
			return p, j, true
		}
	}
	return nil, 0, false
}

// SealedBounds returns the max timestamp of each sealed partition in
// order — the seal boundaries, exposed for tests and tooling.
func (s *Store) SealedBounds() []model.Timestamp {
	s.sealMu.RLock()
	defer s.sealMu.RUnlock()
	out := make([]model.Timestamp, len(s.parts))
	for i, p := range s.parts {
		out[i] = p.maxTS
	}
	return out
}
