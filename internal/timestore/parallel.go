// Frame-file and replay pipelines. Every persisted materialization — a
// full- or delta- .dsnap chain element of any segment — is one kind of file:
// a sequence of [len u32 | crc u32 | payload] frames, the first holding the
// element's DeltaHeader and each later one a block (enc.AppendBlock) of up to
// frameBatchRecords update records in the Fig 3 format. A segment log's
// frames are blocks too, one per AppendBatch run of records at one timestamp.
// One writer produces element files and one reader consumes them; log replay
// is the third pipeline. All three run on pool.RunOrdered — a sequential
// reader/writer on the order-sensitive edge, Options.ParallelIO workers on
// the CPU-heavy encode/decode middle — so a worker count of 1 is the same
// code running inline, with identical bytes and order.
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

	"aion/internal/enc"
	"aion/internal/model"
	"aion/internal/pool"
	"aion/internal/vfs"
	"aion/internal/wal"
)

const (
	// frameBatchRecords is the number of records an element frame holds, and
	// how many records a pipeline job gathers whole frames up to: large
	// enough to amortize channel hand-off, small enough to keep every worker
	// busy near the end of a file.
	frameBatchRecords = 256
	// frameBatchBytes caps a job's payload bytes so huge records do not
	// inflate pipeline memory (in-flight jobs are bounded by the stage); a
	// frame over either cap is a job of its own.
	frameBatchBytes = 256 << 10
	// replayReadahead is the log scan's chunk size during replay.
	replayReadahead = 1 << 20
	// frameHdrLen is the size of a frame's length+CRC header.
	frameHdrLen = 8
	// headFrameMax bounds an element's header frame: an enc.DeltaHeader is at
	// most 65 bytes.
	headFrameMax = 128
)

// frameBatch is one pipeline job: whole frames, each a block, with the record
// count each declares, their sum and, during replay, each one's log offset.
type frameBatch struct {
	frames  [][]byte
	counts  []int
	records int
	offs    []int64
}

// batchFrames hands frames — with their log offsets, nil for an element
// file — to emit in order, as jobs of whole frames up to frameBatchRecords
// records or frameBatchBytes bytes. It reports false once emit refuses one.
func batchFrames(frames [][]byte, offs []int64, emit func(frameBatch) bool) bool {
	for start := 0; start < len(frames); {
		var b frameBatch
		end, size := start, 0
		for ; end < len(frames) && b.records < frameBatchRecords && size < frameBatchBytes; end++ {
			n, _, _ := enc.BlockCount(frames[end]) // a bad count fails the block's decode
			b.counts = append(b.counts, n)
			b.records, size = b.records+n, size+len(frames[end])
		}
		b.frames = frames[start:end]
		if offs != nil {
			b.offs = offs[start:end]
		}
		if !emit(b) {
			return false
		}
		start = end
	}
	return true
}

// decode is the worker stage shared by the element reader and log replay:
// each frame's block, in order. The decoded updates do not alias the frames.
func (b frameBatch) decode(s *Store, path string) ([]model.Update, error) {
	us := make([]model.Update, 0, b.records)
	for _, f := range b.frames {
		var err error
		if us, err = s.codec.DecodeBlock(us, f); err != nil {
			return nil, fmt.Errorf("timestore: frame in %s: %w", path, err)
		}
	}
	return us, nil
}

// sealFrame fills the header slot at the front of frame with the length and
// CRC of the payload that follows it.
func sealFrame(frame []byte) {
	payload := frame[frameHdrLen:]
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
}

// writeFrameFile writes path as the header frame hdr followed by one frame
// per frameBatchRecords updates, and returns the bytes written. Update slices
// are encoded into blocks and framed by ParallelIO workers; the consumer
// streams the finished frames to one bufio writer in emission order, so the
// file bytes do not depend on the worker count. The records hold string refs,
// so the string table is synced before the file is; the file is fsynced
// before close so a publishing rename only ever exposes durable bytes.
func (s *Store) writeFrameFile(path string, hdr []byte, us []model.Update) (written int64, err error) {
	f, err := s.fs.Create(path)
	if err != nil {
		return 0, err
	}
	defer vfs.CloseChecked(f, &err)
	w := bufio.NewWriterSize(&vfs.SeqWriter{F: f}, 1<<16)
	fb := append(make([]byte, frameHdrLen, frameHdrLen+len(hdr)), hdr...)
	sealFrame(fb)
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
			buf, err := s.codec.AppendBlock(append(*bp, make([]byte, frameHdrLen)...), batch)
			if err != nil {
				s.framePool.Put(bp)
				return nil, err
			}
			sealFrame(buf)
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

// readFrames reads the element file at path in one read and splits it into
// its frames' payloads, every checksum verified — only the header frame, off
// the file's first headFrameMax bytes, when head is set. A length that runs
// past the bytes read is corruption, reported before anything is allocated
// for it.
func readFrames(fs vfs.FS, path string, head bool) (frames [][]byte, err error) {
	f, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	defer vfs.CloseChecked(f, &err)
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	if head {
		size = min(size, headFrameMax)
	}
	b := make([]byte, size)
	if _, err := f.ReadAt(b, 0); err != nil && err != io.EOF {
		return nil, err
	}
	for len(b) > 0 && !(head && len(frames) == 1) {
		if len(b) < frameHdrLen || int64(binary.LittleEndian.Uint32(b)) > int64(len(b)-frameHdrLen) {
			return nil, fmt.Errorf("timestore: corrupt frame in %s: its length runs past the %d bytes left", path, len(b))
		}
		payload := b[frameHdrLen : frameHdrLen+binary.LittleEndian.Uint32(b)]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(b[4:]) {
			return nil, fmt.Errorf("timestore: frame checksum mismatch in %s", path)
		}
		frames, b = append(frames, payload), b[frameHdrLen+len(payload):]
	}
	if len(frames) == 0 {
		return nil, fmt.Errorf("timestore: %s holds no header frame", path)
	}
	return frames, nil
}

// readFrameFile streams path's update records to apply, job by job in file
// order, observing ctx cancellation between jobs: the file read and its
// frames checked → decode workers → in-order apply on the calling goroutine.
// The file's first frame is handed to header before any record is decoded.
func (s *Store) readFrameFile(ctx context.Context, path string, header func([]byte) error, apply func([]model.Update) error) error {
	frames, err := readFrames(s.fs, path, false)
	if err == nil {
		err = header(frames[0])
	}
	if err != nil {
		return err
	}
	return pool.RunOrderedCtx(ctx, s.opts.ParallelIO,
		func(emit func(frameBatch) bool) error {
			batchFrames(frames[1:], nil, emit)
			return nil
		},
		func(b frameBatch) ([]model.Update, error) { return b.decode(s, path) },
		apply)
}

// replayDecoded, when a test sets it, is told how many log records each
// replay batch decoded (from the worker goroutines). Nil in production.
var replayDecoded func(records int)

// logEnd as replayWal's upper bound means the log's end when the scan starts.
const logEnd = math.MaxInt64

// replayWal streams l's decoded updates at offsets [from, to) — frame
// boundaries — in commit order, each with its frame's offset, stopping early
// when fn returns false or ctx is cancelled (checked once per job, so a
// runaway range scan stops within one job of the deadline). It is the shared
// replay engine of recover, ScanDiff, and therefore GetGraph/GetGraphs, for
// every segment's log alike: the WAL is scanned with readahead, whole frames
// are cut into jobs, decoding runs on `workers` workers, and fn (graph apply,
// chain cuts) stays in order on the calling goroutine. Callers that already
// run on a pool worker (the scatter-gather over sealed segments) or replay a
// segment once (compaction) pass 1, so they do not nest a second pool.
func (s *Store) replayWal(ctx context.Context, l *wal.Log, workers int, from, to int64, fn func(off int64, u model.Update) bool) error {
	type decoded struct {
		frameBatch
		us []model.Update
	}
	return pool.RunOrderedCtx(ctx, workers,
		func(emit func(frameBatch) bool) error {
			stopped := false
			_, err := l.ScanRange(from, to, replayReadahead, func(chunk []wal.Frame) bool {
				// The frames alias the scan's readahead buffer: the jobs get a
				// copy of the chunk's, in one allocation.
				size := 0
				for _, fr := range chunk {
					size += len(fr.Payload)
				}
				buf, frames, offs := make([]byte, 0, size), make([][]byte, len(chunk)), make([]int64, len(chunk))
				for i, fr := range chunk {
					buf = append(buf, fr.Payload...)
					frames[i], offs[i] = buf[len(buf)-len(fr.Payload):], fr.Off
				}
				stopped = !batchFrames(frames, offs, emit)
				return !stopped
			})
			if stopped {
				return nil
			}
			return err
		},
		func(b frameBatch) (decoded, error) {
			us, err := b.decode(s, l.Path())
			if replayDecoded != nil {
				replayDecoded(len(us))
			}
			return decoded{b, us}, err
		},
		func(d decoded) error {
			for i, n := range d.counts {
				for _, u := range d.us[:n] {
					if !fn(d.offs[i], u) {
						return pool.ErrStop
					}
				}
				d.us = d.us[n:]
			}
			return nil
		})
}
