// The segment. The TimeStore's history is one directory, p-1/: its log, and
// the chain of persisted materializations (.dsnap elements) placed in that
// log by their self-describing headers — the policy snapshots (fulls with
// deltas between them) and the eager ones (always fulls). Everything here
// follows the derive-don't-trust recovery contract: the only durable facts
// are the log and the element headers; recovery re-derives the rest and
// drops anything a crash left half-done.
package timestore

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"aion/internal/enc"
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

// fence pins a point inside the segment's log: the stream is complete through
// pos just before the record at offset off, so a walk that starts there can
// number every record it meets (same timestamp: seq+1; new timestamp: 0).
// A chain element's (pos, logOff) is a fence too.
type fence struct {
	pos position
	off int64
}

// chainElem is one persisted materialization, an element of the segment's
// chain, derived from the .dsnap file's self-describing header at recovery.
type chainElem struct {
	kind   enc.DeltaKind
	pos    position // complete through this position
	base   position // for DeltaDiff: the element this delta applies on
	logOff int64    // log offset of the first uncovered record
	count  uint64   // update records in the file, or a delta's window
	path   string
	size   int64 // file bytes
}

// chainFloor returns the index of the newest element at or before at in a
// position-sorted chain, or -1.
func chainFloor(chain []chainElem, at position) int {
	return sort.Search(len(chain), func(k int) bool { return at.before(chain[k].pos) }) - 1
}

// genesis is the position before all history: where the segment's log
// starts, the one position an empty store sits at.
var genesis = position{ts: -1}

// segment is the store's directory: a log, and the chain of elements
// persisted over that log. count follows the appends (under Store.mu).
type segment struct {
	dir   string
	log   *wal.Log
	count uint64 // updates in the log
	// nextFence is the count the log's next fence waits for.
	nextFence uint64

	// mu guards the two lists that turn a stream position into a log
	// offset. It is a leaf lock — after Store.mu, no I/O under it — so the
	// snapshot worker can catalogue a file without Store.mu.
	mu sync.Mutex
	// chain is position-sorted and replaced, never modified in place, so a
	// reader may keep using the slice elems returned.
	chain []chainElem
	// fences holds the fence of the log's first frame and of every frame that
	// opens a stride (advanceLocked); memory only, laid by appends and by
	// recovery's walk.
	fences []fence
}

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
// begins: the latest of genesis, the chain's floor element and the stride
// fences' floor.
func (g *segment) startFence(from position) fence {
	start := fence{pos: genesis, off: logStart}
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

// chainFileName names a chain element by kind and the (ts, seq) position it
// is complete through, in two's-complement hex so a -1 timestamp sorts and
// parses cleanly.
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

// logMarker is the first record of the segment log once it holds any ("Aion
// TimeStore Log v3"), written with the log's first frame: the frames after it
// are blocks, one per AppendBatch run of records at one timestamp, whose refs
// are flagged uvarints. A log marked ATL2 holds 4-byte refs; a log without a
// marker holds one record per frame, the format before blocks. This reader
// would misparse either.
const logMarker = "ATL3"

// logStart is the offset of the segment log's first frame, past the marker —
// also where an empty log ends, as far as a position is concerned.
const logStart = wal.HeaderSize + int64(len(logMarker))

// --- recovery ----------------------------------------------------------------

// segmentDir is the store's one segment directory, named as the first of
// the numbered directories the sealing layout kept, so a store that never
// sealed opens as it is.
const segmentDir = "p-1"

// checkUnsealed refuses a directory a sealing store wrote: a seal committed
// with the marker p-1/sealed and opened its successor's log in p-2/.
func checkUnsealed(fs vfs.FS, dir string) error {
	for _, path := range []string{filepath.Join(dir, segmentDir, "sealed"), filepath.Join(dir, "p-2", "updates.log")} {
		if _, err := fs.Stat(path); err == nil {
			return fmt.Errorf("timestore: %s holds sealed segments (%s), the layout before one segment; there is no migration — delete the aion directory that holds it and the next open rebuilds it from the host log", dir, path)
		}
	}
	return nil
}

// openSegment opens the segment directory under dir, created when absent:
// the log is opened, which repairs a torn tail, and refused unless empty or
// opening with the format marker, and the chain derived from the element
// files actually on disk.
func openSegment(fs vfs.FS, dir string) (*segment, error) {
	g := &segment{dir: filepath.Join(dir, segmentDir)}
	if err := vfs.MkdirAll(fs, g.dir); err != nil {
		return nil, err
	}
	var err error
	if g.log, err = wal.OpenFS(fs, filepath.Join(g.dir, "updates.log")); err != nil {
		return nil, fmt.Errorf("timestore: segment %s log: %w", g.dir, err)
	}
	var first []byte
	if g.log.Size() > 0 {
		if first, err = g.log.ReadAt(0); err == nil && string(first) != logMarker {
			err = fmt.Errorf("timestore: %s holds an older log format (ATL2: 4-byte string refs; no marker: one record per frame); there is no migration — delete %s and rebuild it from the host log", g.log.Path(), dir)
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
// name, any delta longer than its header frame (written before deltas were
// header-only: there is no migration), any element placed past the end of
// the tail-repaired log — a snapshot the background worker persisted before
// the log bytes it covers were ever fsynced, which would resurrect updates
// that were never durably logged — and any delta whose base element is not the previously accepted
// element — the orphaned-delta case: a crash (or a deleted mid-chain full)
// leaves deltas whose base is gone, and applying one to the wrong base
// would silently corrupt materialization. What survives is the chain; the
// log covers whatever was dropped.
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
			continue // the log
		}
		hdr, herr := readChainHeader(fs, full)
		size, err := fs.Stat(full)
		if err != nil {
			return err
		}
		if herr != nil || hdr.Kind != kind || hdr.TS != pos.ts || hdr.Seq != pos.seq || hdr.LogOff < logStart || hdr.LogOff > max(g.log.Size(), logStart) ||
			(kind == enc.DeltaDiff && size != headerFrameLen(hdr)) {
			// Torn, corrupt, misnamed, ahead of the durable log, or a delta
			// that carries records — the format before header-only deltas,
			// whose Count is a compacted count, not its window's: useless or
			// unsafe to keep.
			if err := fs.Remove(full); err != nil {
				return err
			}
			removed = true
			continue
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
	g.chain = chain
	if removed {
		return fs.SyncDir(g.dir)
	}
	return nil
}

// syncSegmentNames makes the segment's directory entry and its log's
// durable: fsyncing a file's contents does not persist its name, and an
// acknowledged append must not vanish with it.
func (s *Store) syncSegmentNames() error {
	if err := s.fs.SyncDir(s.seg.dir); err != nil {
		return err
	}
	return s.fs.SyncDir(s.opts.Dir)
}

// floorElem finds the newest persisted element at or before ts. It returns
// the chain the index is into, or index -1.
func (s *Store) floorElem(ts model.Timestamp) ([]chainElem, int) {
	chain := s.seg.elems()
	return chain, chainFloor(chain, position{ts: ts, seq: seqComplete})
}
