// Segments. The TimeStore's history is a run of directories p-1/ … p-N/,
// each one segment of the update stream: its own log, and a chain of
// persisted materializations (.dsnap elements) placed in that log by their
// self-describing headers. Every directory but the last carries a marker
// file and is sealed — immutable, its chain compacted into full and
// differential elements (delta.go) so GetGraph inside old history replays
// only its own segment's chain; the last, marker-less one is the active
// segment every append lands in, its chain the policy snapshots (fulls with
// deltas between them, by the same rule) and the eager ones (always fulls).
// A store that never seals (Options.PartitionEvery <= 0) is exactly p-1/.
// Everything here follows the derive-don't-trust recovery contract: the
// only durable facts are the logs, the markers, and the element headers;
// recovery re-derives the rest and recompacts anything a crash left
// half-done.
package timestore

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"aion/internal/enc"
	"aion/internal/memgraph"
	"aion/internal/model"
	"aion/internal/vfs"
	"aion/internal/wal"
)

// position identifies an exact point in the global update stream: the
// state complete through sequence seq at timestamp ts. seq == seqComplete
// means the position covers every update at ts, whatever their number (a
// cached graph's position, and the bound of a timestamp-only lookup).
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

// fence pins a point inside a segment's log: the stream is complete through
// pos just before the record at offset off, so a walk that starts there can
// number every record it meets (same timestamp: seq+1; new timestamp: 0).
// A chain element's (pos, logOff) is a fence too.
type fence struct {
	pos position
	off int64
}

// chainElem is one persisted materialization, an element of a segment's
// chain, derived from the .dsnap file's self-describing header at recovery.
type chainElem struct {
	kind   enc.DeltaKind
	pos    position // complete through this position
	base   position // for DeltaDiff: the element this delta applies on
	logOff int64    // segment-log offset of the first uncovered record
	count  uint64   // update records in the file
	path   string
	size   int64 // file bytes
}

// chainFloor returns the index of the newest element at or before at in a
// position-sorted chain, or -1.
func chainFloor(chain []chainElem, at position) int {
	return sort.Search(len(chain), func(k int) bool { return at.before(chain[k].pos) }) - 1
}

// segment is one directory of the store: a log, the position its history
// starts after, and the chain of elements persisted over that log. count and
// minTS follow the appends while the segment is active (under Store.mu);
// sealing fixes them with the end bounds under sealMu's write side, and
// readers look at bounds only once sealed is set.
type segment struct {
	dir    string
	entry  position // the position the segment's history starts after
	log    *wal.Log
	sealed bool
	minTS  model.Timestamp // timestamp of the segment's first update
	maxTS  model.Timestamp // timestamp of its last update (sealed only)
	endSeq uint32          // seq of the last update, at maxTS (sealed only)
	count  uint64          // updates in the log
	// nextFence is the count the active log's next fence waits for.
	nextFence uint64

	// mu guards the two lists that turn a stream position into a log
	// offset. It is a leaf lock — after Store.mu and sealMu, no I/O under
	// it — so the snapshot worker can catalogue a file without either.
	mu sync.Mutex
	// chain is position-sorted and replaced, never modified in place, so a
	// reader may keep using the slice elems returned. Nil in a sealed
	// segment whose compaction is pending or failed: reads then replay its
	// log from the entry.
	chain []chainElem
	// fences holds the fence of the active log's first frame and of every
	// frame that opens a stride (advanceLocked); memory only, laid by appends
	// and by recovery's walk, dropped when the segment seals.
	fences []fence
}

// end is the position of a sealed segment's last update.
func (g *segment) end() position { return position{ts: g.maxTS, seq: g.endSeq} }

// elems returns the chain as of now, for reading without the lock.
func (g *segment) elems() []chainElem {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.chain
}

// insert catalogues a published element in position order. One at the same
// position is replaced; if that was another file (the other kind — the same
// kind rewrote the same name) its path is returned for the caller to remove.
func (g *segment) insert(e chainElem) (superseded string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if i := chainFloor(g.chain, e.pos); i >= 0 && g.chain[i].pos == e.pos {
		if g.chain[i].path != e.path {
			superseded = g.chain[i].path
		}
		g.chain = slices.Clone(g.chain)
		g.chain[i] = e
	} else {
		g.chain = slices.Insert(slices.Clone(g.chain), i+1, e)
	}
	return superseded
}

// deltaBase is the chain rule for a policy snapshot at pos: the element it is
// written against as a delta, or nil when the chain calls for a full there —
// nothing precedes pos, an element already sits at pos, or the newest one
// before it ends a run of maxRun deltas (maxRun < 0: fulls only). Every delta
// directly follows its base, so a chain never starts with one.
func (g *segment) deltaBase(pos position, maxRun int) *chainElem {
	chain := g.elems()
	i := chainFloor(chain, pos)
	if i < 0 || chain[i].pos == pos {
		return nil
	}
	run := 0
	for k := i; chain[k].kind == enc.DeltaDiff; k-- {
		run++
	}
	if run >= maxRun {
		return nil
	}
	return &chain[i]
}

// startFence is the one rule for where a walk for the records after from
// begins: the latest of the segment's entry, its chain's floor element and
// its stride fences' floor.
func (g *segment) startFence(from position) fence {
	start := fence{pos: g.entry, off: logStart}
	g.mu.Lock()
	defer g.mu.Unlock()
	if i := chainFloor(g.chain, from); i >= 0 {
		start = fence{pos: g.chain[i].pos, off: g.chain[i].logOff}
	}
	i := sort.Search(len(g.fences), func(k int) bool { return from.before(g.fences[k].pos) }) - 1
	if i >= 0 && g.fences[i].off > start.off {
		start = g.fences[i]
	}
	return start
}

func partDirName(n int) string { return fmt.Sprintf("p-%d", n) }

// chainFileName names a chain element by kind and the (ts, seq) position it
// is complete through, in two's-complement hex so the -1 genesis entry
// sorts and parses cleanly.
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

// partMarkerName is the file whose presence commits a seal: the first
// segment directory without it is the active segment.
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

// openSegments opens p-1, p-2, ... in order: every directory with a durable
// seal marker is a sealed segment and the first without one is the active
// segment. The segments opened so far are returned with an error too, for
// the caller to close.
func openSegments(fs vfs.FS, dir string) ([]*segment, error) {
	var segs []*segment
	entry := position{ts: -1}
	for n := 1; ; n++ {
		g, err := openSegment(fs, dir, n, entry)
		if err != nil {
			return segs, err
		}
		segs = append(segs, g)
		if !g.sealed {
			return segs, nil
		}
		entry = g.end()
	}
}

// logMarker is the first record of every segment log that holds any ("Aion
// TimeStore Log v2"), written with the log's first frame: the frames after it
// are blocks, one per AppendBatch run of records at one timestamp. A log
// without it holds one record per frame, the format before blocks, which
// this reader would misparse.
const logMarker = "ATL2"

// logStart is the offset of a segment log's first frame, past the marker —
// also where an empty log ends, as far as a position is concerned.
const logStart = frameHdrLen + int64(len(logMarker))

// openSegment opens directory p-n, whose history starts after entry: sealed
// when its marker is there, else the active segment — created when absent
// (a fresh store, a seal opening its successor, or a seal that crashed
// after its marker). Either way the log is opened, which repairs a torn
// tail, and refused unless empty or opening with the format marker, and the
// chain derived from the element files actually on disk.
func openSegment(fs vfs.FS, dir string, n int, entry position) (*segment, error) {
	g := &segment{dir: filepath.Join(dir, partDirName(n)), entry: entry}
	m, err := readPartMarker(fs, filepath.Join(g.dir, partMarkerName))
	switch {
	case os.IsNotExist(err):
		if err := vfs.MkdirAll(fs, g.dir); err != nil {
			return nil, err
		}
	case err != nil:
		return nil, fmt.Errorf("timestore: segment %s: %w", g.dir, err)
	case position{ts: m.entryTS, seq: m.entrySeq} != entry:
		return nil, fmt.Errorf("timestore: segment %s entry (%d,%d) does not continue (%d,%d)",
			g.dir, m.entryTS, m.entrySeq, entry.ts, entry.seq)
	default:
		g.sealed, g.minTS, g.maxTS, g.endSeq, g.count = true, m.minTS, m.maxTS, m.endSeq, m.count
	}
	if g.log, err = wal.OpenFS(fs, filepath.Join(g.dir, "updates.log")); err != nil {
		return nil, fmt.Errorf("timestore: segment %s log: %w", g.dir, err)
	}
	var first []byte
	if g.log.Size() > 0 {
		if first, err = g.log.ReadAt(0); err == nil && string(first) != logMarker {
			err = fmt.Errorf("timestore: %s holds one record per frame, the log format before blocks; there is no migration — delete %s and rebuild it from the host log", g.log.Path(), dir)
		}
	}
	if err == nil {
		err = deriveChain(fs, g)
	}
	if err != nil {
		return nil, errors.Join(err, g.log.Close())
	}
	return g, nil
}

// deriveChain rebuilds g.chain from the element files present in g.dir,
// trusting only their self-describing headers. Leftover *.tmp files are
// removed; so is any file whose header is unreadable or disagrees with its
// name, any element placed past the end of the tail-repaired log — a
// snapshot the background worker persisted before the log bytes it covers
// were ever fsynced, which would resurrect updates that were never durably
// logged — and any delta whose base element is not the previously accepted
// element — the orphaned-delta case: a crash (or a deleted mid-chain full)
// leaves deltas whose base is gone, and applying one to the wrong base
// would silently corrupt materialization. The active segment keeps what
// survives; a sealed one keeps its chain only if it is complete — entry
// full through the marker's end position — otherwise all of it is dropped
// and the caller recompacts from the log.
func deriveChain(fs vfs.FS, g *segment) error {
	names, err := fs.ReadDir(g.dir)
	if err != nil {
		return err
	}
	var cands []chainElem
	removed := false
	for _, name := range names {
		full := filepath.Join(g.dir, name)
		if strings.HasSuffix(name, ".tmp") {
			if err := fs.Remove(full); err != nil {
				return err
			}
			removed = true
			continue
		}
		kind, pos, ok := parseChainName(name)
		if !ok {
			continue // the log, the marker
		}
		hdr, herr := readChainHeader(fs, full)
		if herr != nil || hdr.Kind != kind || hdr.TS != pos.ts || hdr.Seq != pos.seq || hdr.LogOff < logStart || hdr.LogOff > max(g.log.Size(), logStart) {
			// Torn, corrupt, misnamed, or ahead of the durable log:
			// useless or unsafe to keep.
			if err := fs.Remove(full); err != nil {
				return err
			}
			removed = true
			continue
		}
		size, err := fs.Stat(full)
		if err != nil {
			return err
		}
		cands = append(cands, chainElem{
			kind: kind, pos: pos,
			base:   position{ts: hdr.BaseTS, seq: hdr.BaseSeq},
			logOff: hdr.LogOff, count: hdr.Count, path: full, size: size,
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
	if g.sealed && !chainComplete(g, chain) {
		for _, c := range chain {
			if err := fs.Remove(c.path); err != nil {
				return err
			}
			removed = true
		}
		chain = nil
	}
	g.chain = chain
	if removed {
		return fs.SyncDir(g.dir)
	}
	return nil
}

// chainComplete reports whether chain covers the sealed segment exactly: it
// starts with the entry full (the state *before* the segment's first
// update, shared with the previous segment's end) and its last element is
// complete through the marker's end position.
func chainComplete(g *segment, chain []chainElem) bool {
	if len(chain) == 0 {
		return false
	}
	first, last := chain[0], chain[len(chain)-1]
	return first.kind == enc.DeltaFull && first.pos == g.entry && first.logOff == logStart && last.pos == g.end()
}

// --- sealing -----------------------------------------------------------------

// sealActiveLocked seals the active segment. Caller holds s.mu. A seal
// failure is sticky (s.sealErr): the disk may say sealed where memory does
// not, so the store goes fail-stop for writes — the same contract as a
// failed append — while reads keep working and a reopen picks up whichever
// side of the marker the failure fell on.
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

// doSeal turns the active segment into a sealed one and opens its
// successor. Nothing moves: the log stays where it is, under the handle
// readers already hold, so every durable step runs before sealMu is taken
// and the lock covers only the switch in memory.
func (s *Store) doSeal() error {
	// No snapshot write may race the seal, and no new job can be scheduled
	// while s.mu is held.
	s.snaps.wait()
	old := s.active()
	m := partMarker{
		minTS: old.minTS, maxTS: s.lastTS,
		entryTS: old.entry.ts, entrySeq: old.entry.seq,
		endSeq: s.seq, count: old.count,
	}
	// 1. The log becomes the segment's immutable history: fully durable,
	// strings before the log bytes that reference them.
	if err := s.codec.Strings.Sync(); err != nil {
		return err
	}
	if err := old.log.Sync(); err != nil {
		return err
	}
	// 2. The marker commits the seal: once its name is durable, recovery
	// treats the segment as sealed; before that, as still active.
	if err := writePartMarker(s.fs, old.dir, m); err != nil {
		return err
	}
	if err := s.fs.SyncDir(old.dir); err != nil {
		return err
	}
	// 3. The successor, by the path Open takes when a crash here leaves the
	// sealed run without one. Its names are durable before any append is
	// acknowledged out of it.
	next, err := openSegment(s.fs, s.opts.Dir, len(s.segs)+1, position{ts: m.maxTS, seq: m.endSeq})
	if err != nil {
		return err
	}
	if err := s.syncSegmentNames(next); err != nil {
		return errors.Join(err, next.log.Close())
	}
	// 4. The switch. The policy fulls leave the chain with it: compaction
	// cuts the segment its own way, and readers of a chainless sealed
	// segment replay its log until that is done.
	s.sealMu.Lock()
	old.mu.Lock()
	policy := old.chain
	old.chain, old.fences = nil, nil
	old.mu.Unlock()
	old.sealed, old.maxTS, old.endSeq = true, m.maxTS, m.endSeq
	s.segs = append(s.segs, next)
	s.sealMu.Unlock()
	s.opsSinceSnap = 0
	for _, e := range policy {
		if err := s.fs.Remove(e.path); err != nil {
			return err
		}
	}
	// Compact outside sealMu. The chain is an accelerator, not a
	// correctness requirement — on failure the error is recorded in Stats
	// and recovery recompacts at the next open.
	entry := s.sealEntry
	s.sealEntry = nil
	cerr := fmt.Errorf("timestore: no entry state for %s", old.dir)
	var end *memgraph.Graph
	if entry != nil {
		end, cerr = s.compactPartition(context.Background(), old, entry)
	}
	if cerr != nil {
		s.recordCompactError(cerr)
		// The next segment still needs its entry state: the log's end is
		// exactly the sealed end (the new active log is empty). A seal runs
		// ahead of a commit the host already holds, so a hosted store
		// materialises it; failing that too, the next seal has no entry.
		if end, err = s.latestLocked(context.Background()); err != nil {
			s.recordCompactError(err)
		}
	}
	s.sealEntry = end
	return nil
}

// syncSegmentNames makes the active segment's directory entry and its
// log's durable: fsyncing a file's contents does not persist its name, and
// an acknowledged append must not vanish with it.
func (s *Store) syncSegmentNames(g *segment) error {
	if err := s.fs.SyncDir(g.dir); err != nil {
		return err
	}
	return s.fs.SyncDir(s.opts.Dir)
}

// recordCompactError publishes a compaction failure for Stats.
func (s *Store) recordCompactError(err error) {
	s.compactErrs.Add(1)
	s.lastCompactErr.Store(err.Error())
}

// active returns the unsealed segment every append lands in. Caller holds
// s.mu or sealMu (either mode).
func (s *Store) active() *segment { return s.segs[len(s.segs)-1] }

// floorElem finds the newest persisted element at or before ts: segments
// newest first, each by its own chain. It returns the chain the index is
// into, or index -1. Caller holds sealMu (either mode).
func (s *Store) floorElem(ts model.Timestamp) (*segment, []chainElem, int) {
	for i := len(s.segs) - 1; i >= 0; i-- {
		chain := s.segs[i].elems()
		if j := chainFloor(chain, position{ts: ts, seq: seqComplete}); j >= 0 {
			return s.segs[i], chain, j
		}
	}
	return nil, nil, -1
}

// SealedBounds returns the max timestamp of each sealed segment in order —
// the seal boundaries, exposed for tests and tooling.
func (s *Store) SealedBounds() []model.Timestamp {
	s.sealMu.RLock()
	defer s.sealMu.RUnlock()
	var out []model.Timestamp
	for _, g := range s.segs[:len(s.segs)-1] {
		out = append(out, g.maxTS)
	}
	return out
}
