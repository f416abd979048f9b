// Frame-file and replay pipelines. Every persisted materialization — a
// full- or delta- .dsnap chain element of any segment — is one kind of file:
// a sequence of [len u32 | crc u32 | payload] frames, the first holding the
// element's DeltaHeader and the rest update records in the Fig 3 format.
// One writer produces them and one reader consumes them; log replay is the
// third pipeline. All three run
// on pool.RunOrdered — a sequential reader/writer on the order-sensitive
// edge, Options.ParallelIO workers on the CPU-heavy encode/CRC/decode
// middle — so a worker count of 1 is the same code running inline, with
// identical bytes and order.
package timestore

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"path/filepath"

	"aion/internal/model"
	"aion/internal/pool"
	"aion/internal/vfs"
	"aion/internal/wal"
)

const (
	// frameBatchRecords is the number of records grouped into one pipeline
	// job: large enough to amortize channel hand-off, small enough to keep
	// every worker busy near the end of a file.
	frameBatchRecords = 256
	// frameBatchBytes caps a job's payload bytes so huge records do not
	// inflate pipeline memory (in-flight jobs are bounded by the stage).
	frameBatchBytes = 256 << 10
	// replayReadahead is the log scan's chunk size during replay.
	replayReadahead = 1 << 20
	// frameHdrLen is the size of a frame's length+CRC header.
	frameHdrLen = 8
)

// frameBatch is one pipeline job: a pooled buffer of concatenated record
// payloads plus per-record metadata. ends[i] is the end offset of record i
// within buf; sums carries the file frames' CRCs (verified by the workers);
// offs carries log offsets during replay (the WAL scan verifies its own
// CRCs, so sums is nil there).
type frameBatch struct {
	buf  *[]byte
	ends []int
	sums []uint32
	offs []int64
}

// release returns the batch buffer to the scratch pool.
func (b *frameBatch) release(s *Store) {
	*b.buf = (*b.buf)[:0]
	s.framePool.Put(b.buf)
}

// decode is the worker stage shared by the file reader and log replay:
// verify the frame CRCs (when the batch carries them) and decode the
// records in order. The decoded updates do not alias the batch buffer,
// which is released here.
func (b *frameBatch) decode(s *Store, path string) ([]model.Update, error) {
	defer b.release(s)
	buf := *b.buf
	payloads := make([][]byte, len(b.ends))
	start := 0
	for i, end := range b.ends {
		payloads[i] = buf[start:end]
		if b.sums != nil && crc32.ChecksumIEEE(payloads[i]) != b.sums[i] {
			return nil, fmt.Errorf("timestore: frame checksum mismatch in %s", path)
		}
		start = end
	}
	return s.codec.DecodeUpdates(make([]model.Update, 0, len(payloads)), payloads)
}

// decodedBatch is a replay worker's output: updates in record order plus
// the log offset of each.
type decodedBatch struct {
	us   []model.Update
	offs []int64
}

// sealFrame fills the header slot reserved at buf[start:] with the length
// and CRC of the payload that follows it (everything up to len(buf)).
func sealFrame(buf []byte, start int) {
	payload := buf[start+frameHdrLen:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(payload))
}

// writeFrameFile writes path as the header frame hdr followed by one frame
// per update, and returns the bytes written. Update slices
// are encoded and framed by ParallelIO workers; the consumer streams the
// finished chunks to one bufio writer in emission order, so the file bytes
// do not depend on the worker count. The records hold string refs, so the
// string table is synced before the file is; the file is fsynced before
// close so a publishing rename only ever exposes durable bytes.
func (s *Store) writeFrameFile(path string, hdr []byte, us []model.Update) (written int64, err error) {
	f, err := s.fs.Create(path)
	if err != nil {
		return 0, err
	}
	defer vfs.CloseChecked(f, &err)
	w := bufio.NewWriterSize(&vfs.SeqWriter{F: f}, 1<<16)
	fb := append(make([]byte, frameHdrLen, frameHdrLen+len(hdr)), hdr...)
	sealFrame(fb, 0)
	if _, err := w.Write(fb); err != nil {
		return 0, err
	}
	written = int64(len(fb))
	err = pool.RunOrdered(s.opts.ParallelIO,
		func(emit func([]model.Update) bool) error {
			for len(us) > 0 {
				n := min(frameBatchRecords, len(us))
				if !emit(us[:n]) {
					return nil
				}
				us = us[n:]
			}
			return nil
		},
		func(batch []model.Update) (*[]byte, error) {
			bp := s.framePool.Get()
			buf := *bp
			for _, u := range batch {
				start := len(buf)
				buf = append(buf, make([]byte, frameHdrLen)...)
				var err error
				if buf, err = s.codec.AppendUpdate(buf, u); err != nil {
					s.framePool.Put(bp)
					return nil, err
				}
				sealFrame(buf, start)
			}
			*bp = buf
			return bp, nil
		},
		func(bp *[]byte) error {
			_, werr := w.Write(*bp)
			written += int64(len(*bp))
			s.framePool.Put(bp)
			return werr
		})
	if err != nil {
		return written, err
	}
	if err := w.Flush(); err != nil {
		return written, err
	}
	if err := s.codec.Strings.Sync(); err != nil {
		return written, err
	}
	return written, f.Sync()
}

// publishFrameFile persists a frame file with the atomic-replace protocol:
// write to path+".tmp", fsync the file, rename over the final name, fsync
// the directory. A crash at any point leaves either the complete previous
// file set (leftover tmps are removed by recovery) or the complete new
// file — never a half-written file under a live name.
func (s *Store) publishFrameFile(path string, hdr []byte, us []model.Update) (int64, error) {
	tmp := path + ".tmp"
	n, err := s.writeFrameFile(tmp, hdr, us)
	if err == nil {
		err = s.fs.Rename(tmp, path)
	}
	if err != nil {
		_ = s.fs.Remove(tmp)
		return 0, err
	}
	return n, s.fs.SyncDir(filepath.Dir(path))
}

// frameReader reads frames sequentially from one file, tracking how many
// bytes the file still holds so a corrupt length field is rejected before
// anything is allocated for it.
type frameReader struct {
	r    *bufio.Reader
	left int64
	path string
}

func newFrameReader(f vfs.File, path string, bufSize int) (*frameReader, error) {
	sr, err := vfs.NewReader(f)
	if err != nil {
		return nil, err
	}
	return &frameReader{r: bufio.NewReaderSize(sr, bufSize), left: sr.Size(), path: path}, nil
}

// appendFrame appends the next frame's payload to buf and returns its CRC
// for the caller to verify; io.EOF (with buf unchanged) marks a clean end of
// file. A length field that runs past the file end is corruption, reported
// before any byte is allocated for it.
func (fr *frameReader) appendFrame(buf []byte) ([]byte, uint32, error) {
	var h [frameHdrLen]byte
	if _, err := io.ReadFull(fr.r, h[:]); err != nil {
		if err == io.EOF {
			return buf, 0, io.EOF
		}
		return buf, 0, fmt.Errorf("timestore: frame header in %s: %w", fr.path, err)
	}
	fr.left -= frameHdrLen
	n := int64(binary.LittleEndian.Uint32(h[:4]))
	if n > fr.left {
		return buf, 0, fmt.Errorf("timestore: corrupt frame in %s: length %d exceeds the %d bytes left in the file",
			fr.path, n, fr.left)
	}
	fr.left -= n
	start := len(buf)
	buf = growBytes(buf, int(n))
	if _, err := io.ReadFull(fr.r, buf[start:]); err != nil {
		return buf[:start], 0, fmt.Errorf("timestore: frame body in %s: %w", fr.path, err)
	}
	return buf, binary.LittleEndian.Uint32(h[4:]), nil
}

// readFrame reads one whole frame and verifies its checksum (the header
// frame; record frames are verified on the worker stage).
func (fr *frameReader) readFrame() ([]byte, error) {
	payload, sum, err := fr.appendFrame(nil)
	if err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, fmt.Errorf("timestore: frame checksum mismatch in %s", fr.path)
	}
	return payload, nil
}

// readFrameFile streams path's update records to apply, batch by batch in
// file order, observing ctx cancellation between batches: sequential frame
// reader → CRC+decode workers → in-order apply on the calling goroutine.
// The file's first frame is handed to header before any record is read.
func (s *Store) readFrameFile(ctx context.Context, path string, header func([]byte) error, apply func([]model.Update) error) (err error) {
	f, err := s.fs.Open(path)
	if err != nil {
		return err
	}
	defer vfs.CloseChecked(f, &err)
	fr, err := newFrameReader(f, path, 1<<16)
	if err != nil {
		return err
	}
	payload, err := fr.readFrame()
	if err != nil {
		return err
	}
	if err := header(payload); err != nil {
		return err
	}
	return pool.RunOrderedCtx(ctx, s.opts.ParallelIO,
		func(emit func(frameBatch) bool) error {
			for eof := false; !eof; {
				b := frameBatch{buf: s.framePool.Get()}
				buf := *b.buf
				for len(b.ends) < frameBatchRecords && len(buf) < frameBatchBytes {
					var sum uint32
					var err error
					buf, sum, err = fr.appendFrame(buf)
					if err == io.EOF {
						eof = true
						break
					}
					if err != nil {
						b.release(s)
						return err
					}
					b.ends = append(b.ends, len(buf))
					b.sums = append(b.sums, sum)
				}
				*b.buf = buf
				if len(b.ends) == 0 {
					b.release(s)
					break
				}
				if !emit(b) {
					return nil
				}
			}
			return nil
		},
		func(b frameBatch) ([]model.Update, error) { return b.decode(s, path) },
		apply)
}

// growBytes extends b by n zero bytes, reallocating only when needed.
func growBytes(b []byte, n int) []byte {
	if cap(b)-len(b) >= n {
		return b[:len(b)+n]
	}
	return append(b, make([]byte, n)...)
}

// replayDecoded, when a test sets it, is told how many log records each
// replay batch decoded (from the worker goroutines). Nil in production.
var replayDecoded func(records int)

// logEnd as replayWal's upper bound means the log's end when the scan starts.
const logEnd = math.MaxInt64

// replayWal streams l's decoded updates at offsets [from, to) in commit order,
// stopping early when fn returns false or ctx is cancelled (checked once
// per batch, so a runaway range scan stops within one batch of the
// deadline). It is the shared replay engine of recover, ScanDiff, and
// therefore GetGraph/GetGraphs, for every segment's log alike: the WAL is
// scanned with readahead batches, record decoding runs on `workers`
// workers, and fn (fence laying, graph apply) stays in order on the calling
// goroutine. Callers that already run on a pool worker (the scatter-gather
// over sealed segments) or replay a segment once (compaction) pass 1, so
// they do not nest a second pool.
func (s *Store) replayWal(ctx context.Context, l *wal.Log, workers int, from, to int64, fn func(off int64, u model.Update) bool) error {
	return pool.RunOrderedCtx(ctx, workers,
		func(emit func(frameBatch) bool) error {
			stopped := false
			_, err := l.ScanRange(from, to, replayReadahead, func(frames []wal.Frame) bool {
				// Frames alias the scan's readahead buffer, so each job
				// copies its records into a pooled batch buffer before the
				// scan moves on.
				for len(frames) > 0 {
					n := min(frameBatchRecords, len(frames))
					b := frameBatch{buf: s.framePool.Get()}
					buf := *b.buf
					for _, fr := range frames[:n] {
						buf = append(buf, fr.Payload...)
						b.ends = append(b.ends, len(buf))
						b.offs = append(b.offs, fr.Off)
					}
					*b.buf = buf
					frames = frames[n:]
					if !emit(b) {
						stopped = true
						return false
					}
				}
				return true
			})
			if stopped {
				return nil
			}
			return err
		},
		func(b frameBatch) (decodedBatch, error) {
			us, err := b.decode(s, "")
			if replayDecoded != nil {
				replayDecoded(len(us))
			}
			return decodedBatch{us: us, offs: b.offs}, err
		},
		func(d decodedBatch) error {
			for i, u := range d.us {
				if !fn(d.offs[i], u) {
					return pool.ErrStop
				}
			}
			return nil
		})
}
