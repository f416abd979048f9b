// Package wal implements the TimeStore's update log (Sec 4.3): an
// append-only file of variable-size records ordered by monotonically
// increasing transaction timestamps, similar to a database write-ahead log
// with no retention policy. Records are addressed by byte offset so a
// B+Tree can index them by time, and can be read back individually or
// scanned as a range.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"path/filepath"
	"sync"

	"aion/internal/vfs"
)

// HeaderSize is a record's framing ahead of its payload: the payload's length
// and its CRC-32 (IEEE), each a little-endian uint32. The record is the one
// checked framing of the system: this log, the TimeStore's element files and
// every replication message are records.
const HeaderSize = 8

// ErrCorrupt marks records that fail framing validation (truncated tail or
// checksum mismatch), as opposed to I/O errors from the filesystem.
var ErrCorrupt = errors.New("wal: corrupt record")

// Seal fills the HeaderSize bytes at the front of rec with the length and CRC
// of the payload after them, making rec one record.
func Seal(rec []byte) {
	payload := rec[HeaderSize:]
	binary.LittleEndian.PutUint32(rec, uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:], crc32.ChecksumIEEE(payload))
}

// AppendRecord appends payload to dst as one record.
func AppendRecord(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

// Size returns the length of the record whose header starts b, as the header
// declares it: b must hold at least HeaderSize bytes.
func Size(b []byte) int64 { return HeaderSize + int64(binary.LittleEndian.Uint32(b)) }

// Cut splits the record at the front of b into its payload, which aliases b,
// and the bytes after it. A header that does not fit, a length that runs past
// b, or a checksum mismatch is an error wrapping ErrCorrupt.
func Cut(b []byte) (payload, rest []byte, err error) {
	if len(b) < HeaderSize {
		return nil, b, fmt.Errorf("%w: %d bytes, short of a record header", ErrCorrupt, len(b))
	}
	n := Size(b)
	if n > int64(len(b)) {
		return nil, b, fmt.Errorf("%w: length %d runs past the %d bytes left", ErrCorrupt, n-HeaderSize, len(b)-HeaderSize)
	}
	if crc32.ChecksumIEEE(b[HeaderSize:n]) != binary.LittleEndian.Uint32(b[4:]) {
		return nil, b, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return b[HeaderSize:n], b[n:], nil
}

// Log is an append-only record log. Appends are serialized; reads may run
// concurrently with appends.
type Log struct {
	mu       sync.RWMutex
	f        vfs.File
	size     int64 // next append offset
	synced   int64 // extent covered by the last successful Sync
	path     string
	writeBuf []byte // reused append scratch, guarded by mu
	repaired int64  // torn-tail bytes truncated by Open
	failed   error  // sticky: first append/sync I/O error; later writes fail-stop
}

// Open creates or opens the log at path on the real filesystem.
func Open(path string) (*Log, error) { return OpenFS(vfs.OS, path) }

// OpenFS creates or opens the log at path on fs. Opening validates the
// log's tail: records are walked front to back (length + CRC), and any
// trailing bytes that do not form a complete valid record — the torn tail
// a crash mid-append or mid-fsync leaves behind — are truncated, so a
// half-written record can never sit under later appends and poison a
// future scan. The durable contract is therefore: everything before the
// last synced, fully-framed record survives; a torn tail is discarded.
func OpenFS(fs vfs.FS, path string) (*Log, error) {
	f, err := fs.OpenFile(path)
	if err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	size, err := f.Size()
	if err != nil {
		return nil, errors.Join(fmt.Errorf("wal: stat: %w", err), f.Close())
	}
	l := &Log{f: f, size: size, path: path}
	if err := l.repairTail(); err != nil {
		return nil, errors.Join(err, f.Close())
	}
	// The bytes that survived open (post tail-repair) are the durable
	// baseline: everything a crash could not take away is already on disk.
	l.synced = l.size
	return l, nil
}

// repairTail walks the whole log validating framing and truncates
// everything from the first invalid record on. Only framing errors
// (ErrCorrupt) trigger repair; I/O errors abort the open.
func (l *Log) repairTail() error {
	validEnd, err := l.ScanBatch(0, 0, func([]Frame) bool { return true })
	if err == nil {
		return nil
	}
	if !errors.Is(err, ErrCorrupt) {
		return fmt.Errorf("wal: tail validation: %w", err)
	}
	if terr := l.f.Truncate(validEnd); terr != nil {
		return fmt.Errorf("wal: tail repair truncate: %w", terr)
	}
	if serr := l.f.Sync(); serr != nil {
		return fmt.Errorf("wal: tail repair sync: %w", serr)
	}
	l.repaired = l.size - validEnd
	l.size = validEnd
	return nil
}

// RepairedBytes reports how many torn-tail bytes Open discarded (0 on a
// clean log).
func (l *Log) RepairedBytes() int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.repaired
}

// OpenTemp opens a log on a fresh temporary directory under dir (or the
// system temp dir if dir is empty); useful for benchmarks.
func OpenTemp(dir string) (*Log, error) {
	dir, err := vfs.MkdirTemp(dir, "aion-wal-*")
	if err != nil {
		return nil, fmt.Errorf("wal: temp: %w", err)
	}
	return Open(filepath.Join(dir, "wal.log"))
}

// Append writes one record and returns its offset. Header and payload go
// out in a single write to keep the per-update ingestion cost low.
//
// After any append or sync I/O failure the log fails stop: every later
// Append and Sync returns the original error. A write that failed may have
// left a torn record on disk, and an fsync that failed may have dropped
// dirty pages (the kernel clears the error state after reporting it once),
// so continuing to append would silently build on data that never became —
// and may never become — durable.
func (l *Log) Append(payload []byte) (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return 0, fmt.Errorf("wal: log failed: %w", l.failed)
	}
	buf := AppendRecord(l.writeBuf[:0], payload)
	off := l.size
	if _, err := l.f.WriteAt(buf, off); err != nil {
		l.failed = err
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	l.size = off + int64(len(buf))
	l.writeBuf = buf[:0]
	return off, nil
}

// AppendBatch writes N records under one lock acquisition and one WriteAt,
// returning each record's offset. This is the group-commit primitive: a
// leader coalescing concurrent transactions pays one syscall for the whole
// batch instead of one per transaction, and a single following fsync covers
// every record. Each payload keeps its own length+CRC frame, so recovery
// still validates record by record — a torn batch write leaves a valid
// record prefix and the WAL's tail repair drops only the torn suffix,
// never a fully framed earlier record.
func (l *Log) AppendBatch(payloads [][]byte) ([]int64, error) {
	if len(payloads) == 0 {
		return nil, nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return nil, fmt.Errorf("wal: log failed: %w", l.failed)
	}
	total := 0
	for _, p := range payloads {
		total += HeaderSize + len(p)
	}
	if cap(l.writeBuf) < total {
		l.writeBuf = make([]byte, total)
	}
	buf := l.writeBuf[:0]
	offs := make([]int64, len(payloads))
	off := l.size
	for i, p := range payloads {
		offs[i] = off + int64(len(buf))
		buf = AppendRecord(buf, p)
	}
	if _, err := l.f.WriteAt(buf, off); err != nil {
		l.failed = err
		return nil, fmt.Errorf("wal: append batch: %w", err)
	}
	l.size = off + int64(len(buf))
	l.writeBuf = buf[:0]
	return offs, nil
}

// ReadRange returns the exact bytes [from, to) of the log file — headers
// and payloads alike, no record alignment. The range must lie within the
// fsync-covered extent: replication's tail-CRC verification compares these
// bytes positionally across nodes, and only durable bytes are comparable.
func (l *Log) ReadRange(from, to int64) ([]byte, error) {
	durable := l.SyncedSize()
	if from < 0 || from > to || to > durable {
		return nil, fmt.Errorf("wal: range [%d,%d) outside durable extent %d", from, to, durable)
	}
	buf := make([]byte, to-from)
	if to > from {
		if _, err := l.f.ReadAt(buf, from); err != nil {
			return nil, fmt.Errorf("wal: range read at %d: %w", from, err)
		}
	}
	return buf, nil
}

// ReadAt returns the record stored at the given offset.
func (l *Log) ReadAt(off int64) ([]byte, error) {
	payload, _, err := l.readAt(off)
	return payload, err
}

func (l *Log) readAt(off int64) (payload []byte, next int64, err error) {
	l.mu.RLock()
	size := l.size
	l.mu.RUnlock()
	if off < 0 || off+HeaderSize > size {
		return nil, 0, fmt.Errorf("wal: offset %d out of range (size %d)", off, size)
	}
	var hdr [HeaderSize]byte
	if _, err := l.f.ReadAt(hdr[:], off); err != nil {
		return nil, 0, fmt.Errorf("wal: read header: %w", err)
	}
	n := Size(hdr[:])
	if off+n > size {
		return nil, 0, fmt.Errorf("%w: truncated record at %d", ErrCorrupt, off)
	}
	rec := make([]byte, n)
	copy(rec, hdr[:])
	if _, err := io.ReadFull(io.NewSectionReader(l.f, off+HeaderSize, n-HeaderSize), rec[HeaderSize:]); err != nil {
		return nil, 0, fmt.Errorf("wal: read payload: %w", err)
	}
	if payload, _, err = Cut(rec); err != nil {
		return nil, 0, fmt.Errorf("%w at %d", err, off)
	}
	return payload, off + n, nil
}

// Scan invokes fn for each record starting at offset from, in append order,
// until the end of the log or fn returns false. It returns the offset just
// past the last visited record. The payload slice aliases an internal
// readahead buffer and is valid only until fn returns.
func (l *Log) Scan(from int64, fn func(off int64, payload []byte) bool) (int64, error) {
	resume := from
	_, err := l.ScanBatch(from, 0, func(frames []Frame) bool {
		for _, fr := range frames {
			ok := fn(fr.Off, fr.Payload)
			resume = fr.Off + HeaderSize + int64(len(fr.Payload))
			if !ok {
				return false
			}
		}
		return true
	})
	return resume, err
}

// Frame is one log record surfaced by ScanBatch. Payload aliases the scan's
// readahead buffer and is valid only until the batch callback returns: decode
// it there, or copy it.
type Frame struct {
	Off     int64
	Payload []byte
}

// DefaultReadahead is the ScanBatch chunk size used when none is given.
const DefaultReadahead = 1 << 20

// ScanBatch reads the log in large readahead chunks and invokes fn once per
// chunk with every complete, CRC-verified record it contains, amortizing one
// syscall over hundreds of records (replay is TimeStore's hottest read
// path). A record that straddles a chunk boundary is re-read at the start
// of the next chunk; a record larger than the readahead grows the buffer.
// Scanning stops at the end of the log or when fn returns false; the return
// value is the offset just past the last batch handed to fn.
func (l *Log) ScanBatch(from int64, readahead int, fn func(frames []Frame) bool) (int64, error) {
	return l.ScanRange(from, math.MaxInt64, readahead, fn)
}

// ScanRange is ScanBatch over the records in [from, to): to is a record
// boundary, or anything past the log's end for the end as of the call. Nothing
// past to is read, and the readahead buffer is no larger than the window.
func (l *Log) ScanRange(from, to int64, readahead int, fn func(frames []Frame) bool) (int64, error) {
	l.mu.RLock()
	end := min(to, l.size)
	l.mu.RUnlock()
	if from < 0 {
		return from, fmt.Errorf("wal: offset %d out of range (size %d)", from, end)
	}
	if readahead < HeaderSize {
		readahead = DefaultReadahead
	}
	buf := make([]byte, max(HeaderSize, min(int64(readahead), end-from)))
	var frames []Frame
	off := from
	for off < end {
		n := int64(len(buf))
		if n > end-off {
			n = end - off
		}
		chunk := buf[:n]
		if _, err := l.f.ReadAt(chunk, off); err != nil {
			return off, fmt.Errorf("wal: readahead at %d: %w", off, err)
		}
		frames = frames[:0]
		pos := 0
		var parseErr error
		for pos+HeaderSize <= len(chunk) {
			recEnd := pos + int(Size(chunk[pos:]))
			if off+int64(recEnd) > end {
				parseErr = fmt.Errorf("%w: truncated record at %d", ErrCorrupt, off+int64(pos))
				break
			}
			if recEnd > len(chunk) {
				break // straddles the chunk boundary; next chunk restarts here
			}
			payload, _, err := Cut(chunk[pos:recEnd])
			if err != nil {
				parseErr = fmt.Errorf("%w at %d", err, off+int64(pos))
				break
			}
			frames = append(frames, Frame{Off: off + int64(pos), Payload: payload})
			pos = recEnd
		}
		if pos == 0 && parseErr == nil {
			if len(chunk) < HeaderSize {
				// A tail fragment smaller than a record header: torn write.
				return off, fmt.Errorf("%w: truncated record at %d", ErrCorrupt, off)
			}
			// A single record larger than the buffer: grow to fit it.
			buf = make([]byte, Size(chunk))
			continue
		}
		// Records parsed before a mid-chunk corruption are still delivered,
		// so a callback that stops before the bad record never sees the
		// error — the same behaviour as the record-at-a-time Scan.
		if len(frames) > 0 && !fn(frames) {
			return off + int64(pos), nil
		}
		if parseErr != nil {
			return off + int64(pos), parseErr
		}
		off += int64(pos)
	}
	return off, nil
}

// Size returns the current log size in bytes.
func (l *Log) Size() int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.size
}

// Sync flushes the log to stable storage. A failed sync poisons the log
// (see Append): the bytes it covered may be gone.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return fmt.Errorf("wal: log failed: %w", l.failed)
	}
	//aionlint:ignore lockio fsync must serialize with appends so the sticky fail-stop error is ordered before any later write; readers only take mu for the size field, never across I/O
	if err := l.f.Sync(); err != nil {
		l.failed = err
		return fmt.Errorf("wal: sync: %w", err)
	}
	l.synced = l.size
	return nil
}

// SyncedSize returns the log extent covered by the last successful Sync:
// the prefix guaranteed to survive a crash. Replication ships only bytes
// below this watermark, so a follower can never hold a record its primary
// might lose.
func (l *Log) SyncedSize() int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.synced
}

// Path returns the log's file path.
func (l *Log) Path() string { return l.path }

// Close syncs and closes the log file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	//aionlint:ignore lockio final fsync of a log being torn down; no reader or appender can be admitted after Close takes the write lock
	if err := l.f.Sync(); err != nil {
		return errors.Join(err, l.f.Close())
	}
	l.synced = l.size
	err := l.f.Close()
	l.f = nil
	return err
}
