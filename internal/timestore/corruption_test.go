package timestore

import (
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"aion/internal/enc"
	"aion/internal/memgraph"
	"aion/internal/strstore"
)

// TestCorruptedSnapshotSurfacesError flips bytes in an on-disk snapshot
// file; a later GetGraph that needs it must return an error, not wrong data
// or a panic.
func TestCorruptedSnapshotSurfacesError(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(enc.NewCodec(strstore.NewMem()), Options{
		Dir:              dir,
		SnapshotEveryOps: 5,
		GraphStoreBytes:  1, // force disk reads
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.AppendBatch(chainUpdates(10)); err != nil {
		t.Fatal(err)
	}
	s.WaitSnapshots()
	// Corrupt every snapshot file.
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if len(snaps) == 0 {
		t.Fatal("no snapshots written")
	}
	for _, path := range snaps {
		b, _ := os.ReadFile(path)
		if len(b) > 10 {
			b[len(b)/2] ^= 0xFF
			os.WriteFile(path, b, 0o644)
		}
	}
	// A query below the cached (newest) snapshot must load an older one
	// from disk and see the corruption.
	if _, err := s.GetGraph(6); err == nil {
		t.Error("corrupted snapshot must surface an error")
	}
}

// TestTruncatedSnapshotSurfacesError truncates a snapshot file mid-record.
func TestTruncatedSnapshotSurfacesError(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(enc.NewCodec(strstore.NewMem()), Options{
		Dir:              dir,
		SnapshotEveryOps: 5,
		GraphStoreBytes:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.AppendBatch(chainUpdates(10)); err != nil {
		t.Fatal(err)
	}
	s.WaitSnapshots()
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	for _, path := range snaps {
		b, _ := os.ReadFile(path)
		os.WriteFile(path, b[:len(b)-3], 0o644)
	}
	if _, err := s.GetGraph(6); err == nil {
		t.Error("truncated snapshot must surface an error")
	}
}

// allocatedDuring reports the bytes allocated while fn runs.
func allocatedDuring(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// corruptFrameLen overwrites the length field of the frame starting at
// byte offset off in path with a ~4 GiB value.
func corruptFrameLen(t *testing.T, path string, off int) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(b[off:], 0xFFFFFFF0)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptFrameLengthRejectedBeforeAllocation is the regression for the
// readers trusting a frame's length field: one flipped bit in a .snap or
// .dsnap used to ask for up to 4 GiB before any check. The length is now
// bounded by the bytes left in the file, and the error names the file.
func TestCorruptFrameLengthRejectedBeforeAllocation(t *testing.T) {
	const maxAlloc = 32 << 20
	check := func(t *testing.T, path string, load func() error) {
		t.Helper()
		var err error
		if got := allocatedDuring(func() { err = load() }); got > maxAlloc {
			t.Errorf("loading a corrupt frame allocated %d bytes", got)
		}
		if err == nil || !strings.Contains(err.Error(), "corrupt frame") || !strings.Contains(err.Error(), path) {
			t.Errorf("want a corrupt-frame error naming %s, got %v", path, err)
		}
	}
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("snapshot/P%d", par), func(t *testing.T) {
			dir := t.TempDir()
			s := openStore(t, Options{Dir: dir, SnapshotEveryOps: 1 << 30, GraphStoreBytes: 1, ParallelIO: par})
			us := propUpdates(50)
			if err := s.AppendBatch(us); err != nil {
				t.Fatal(err)
			}
			if err := s.CreateSnapshot(); err != nil {
				t.Fatal(err)
			}
			path := snapshotFiles(t, dir)[0]
			corruptFrameLen(t, path, 0)
			check(t, path, func() error {
				_, err := s.loadSnapshotFile(context.Background(), path, us[len(us)-1].TS)
				return err
			})
		})
		t.Run(fmt.Sprintf("chain/P%d", par), func(t *testing.T) {
			dir := t.TempDir()
			s := openStore(t, Options{Dir: dir, SnapshotEveryOps: 1 << 30, GraphStoreBytes: 1,
				PartitionEvery: 60, DeltaChainLength: 1, ParallelIO: par})
			for _, u := range propUpdates(50) {
				if err := s.Append(u); err != nil {
					t.Fatal(err)
				}
			}
			if len(s.parts) == 0 || len(s.parts[0].chain) < 2 {
				t.Fatal("workload sealed no compacted partition")
			}
			// A record frame: skip the header frame, whose length is intact.
			elem := s.parts[0].chain[1]
			b, err := os.ReadFile(elem.path)
			if err != nil {
				t.Fatal(err)
			}
			corruptFrameLen(t, elem.path, frameHdrLen+int(binary.LittleEndian.Uint32(b)))
			check(t, elem.path, func() error {
				return s.applyChainFile(context.Background(), elem, memgraph.New(), false)
			})
			// The header frame itself, as recovery's derivation reads it.
			corruptFrameLen(t, elem.path, 0)
			check(t, elem.path, func() error {
				_, err := readChainHeader(s.fs, elem.path)
				return err
			})
		})
	}
}
