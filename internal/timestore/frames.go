// Frame files and log replay. Every persisted materialization — a full- or
// delta- .dsnap chain element — is one kind of file: a sequence of frames,
// wal records (wal.Seal, wal.Cut), the first holding the element's
// DeltaHeader and, in a full, each later one a block (enc.AppendBlock) of up
// to frameBatchRecords update records in the Fig 3 format; a delta holds its
// header alone, its records being its log window. The log's frames are blocks
// too, one per AppendBatch run of records at one timestamp.
// The writer, the element reader and log replay each run on the calling
// goroutine, one frame at a time, encoding or decoding into one buffer the
// loop reuses.
package timestore

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"path/filepath"

	"aion/internal/model"
	"aion/internal/vfs"
	"aion/internal/wal"
)

const (
	// frameBatchRecords is the number of records an element frame holds.
	frameBatchRecords = 256
	// replayStride is how many records replay decodes between two checks of
	// its ctx, the serving contract's stride.
	replayStride = 256
	// replayReadahead is the log scan's chunk size during replay.
	replayReadahead = 1 << 20
	// headFrameMax bounds an element's header frame: an enc.DeltaHeader is at
	// most 65 bytes.
	headFrameMax = 128
)

// writeFrameFile writes path as the header frame hdr followed by one frame
// per frameBatchRecords updates, each encoded into one reused buffer, and
// returns the bytes written. The records hold string refs, so the string
// table is synced before the file is; the file is fsynced before close so a
// publishing rename only ever exposes durable bytes.
func (s *Store) writeFrameFile(path string, hdr []byte, us []model.Update) (written int64, err error) {
	f, err := s.fs.Create(path)
	if err != nil {
		return 0, err
	}
	defer vfs.CloseChecked(f, &err)
	w := bufio.NewWriterSize(&vfs.SeqWriter{F: f}, 1<<16)
	fb := wal.AppendRecord(nil, hdr)
	for {
		if _, err := w.Write(fb); err != nil {
			return written, err
		}
		written += int64(len(fb))
		if len(us) == 0 {
			break
		}
		n := min(frameBatchRecords, len(us))
		if fb, err = s.codec.AppendBlock(append(fb[:0], make([]byte, wal.HeaderSize)...), us[:n]); err != nil {
			return written, err
		}
		wal.Seal(fb)
		us = us[n:]
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
		var payload []byte
		if payload, b, err = wal.Cut(b); err != nil {
			return nil, fmt.Errorf("timestore: corrupt frame in %s: %w", path, err)
		}
		frames = append(frames, payload)
	}
	if len(frames) == 0 {
		return nil, fmt.Errorf("timestore: %s holds no header frame", path)
	}
	return frames, nil
}

// decodeFrames applies the update records of frames — an element file's
// block frames, read from path — in file order, decoding each frame into one
// reused slice and checking ctx before it.
func (s *Store) decodeFrames(ctx context.Context, path string, frames [][]byte, apply func(model.Update) error) error {
	var us []model.Update
	for _, f := range frames {
		if err := ctx.Err(); err != nil {
			return err
		}
		var err error
		if us, err = s.codec.DecodeBlock(us[:0], f); err != nil {
			return fmt.Errorf("timestore: frame in %s: %w", path, err)
		}
		for _, u := range us {
			if err := apply(u); err != nil {
				return err
			}
		}
	}
	return nil
}

// replayDecoded, when a test sets it, is told how many log records each
// frame replay decodes. Nil in production.
var replayDecoded func(records int)

// logEnd as replayWal's upper bound means the log's end when the scan starts.
const logEnd = math.MaxInt64

// replayWal hands fn the log's decoded updates at offsets [from, to) — frame
// boundaries — in commit order, each with its frame's offset, stopping early
// when fn returns false or ctx is cancelled (checked before a frame once
// replayStride records have been decoded since the last check, so a runaway
// range scan stops within a stride and a frame of the deadline). It is the
// shared replay engine of recover, a delta's window, ScanDiffContext, and
// therefore GetGraphContext/ScanGraphsContext: the WAL is scanned with
// readahead and each frame decoded in place from the readahead buffer, into
// one reused slice; the decoded updates do not alias the buffer.
func (s *Store) replayWal(ctx context.Context, from, to int64, fn func(off int64, u model.Update) bool) error {
	l := s.seg.log
	var us []model.Update
	var err error
	unchecked := replayStride // records decoded since ctx was last checked
	_, serr := l.ScanRange(from, to, replayReadahead, func(chunk []wal.Frame) bool {
		for _, fr := range chunk {
			if unchecked >= replayStride {
				if err = ctx.Err(); err != nil {
					return false
				}
				unchecked = 0
			}
			if us, err = s.codec.DecodeBlock(us[:0], fr.Payload); err != nil {
				err = fmt.Errorf("timestore: frame in %s: %w", l.Path(), err)
				return false
			}
			unchecked += len(us)
			if replayDecoded != nil {
				replayDecoded(len(us))
			}
			for _, u := range us {
				if !fn(fr.Off, u) {
					return false
				}
			}
		}
		return true
	})
	if err != nil {
		return err
	}
	return serr
}
