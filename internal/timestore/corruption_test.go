package timestore

import (
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"aion/internal/memgraph"
)

// TestDamagedSnapshotSurfacesError flips a byte in, or cuts the tail off,
// every on-disk snapshot; a later GetGraph that needs one must return an
// error, not wrong data or a panic.
func TestDamagedSnapshotSurfacesError(t *testing.T) {
	for name, damage := range map[string]func([]byte) []byte{
		"corrupted": func(b []byte) []byte { b[len(b)/2] ^= 0xFF; return b },
		"truncated": func(b []byte) []byte { return b[:len(b)-3] }, // mid-record
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			// A 1-byte cache forces disk reads.
			s := openStore(t, Options{Dir: dir, SnapshotEveryOps: 5, GraphStoreBytes: 1})
			if err := s.AppendBatch(chainUpdates(10)); err != nil {
				t.Fatal(err)
			}
			s.WaitSnapshots()
			snaps := snapshotFiles(t, dir)
			if len(snaps) == 0 {
				t.Fatal("no snapshots written")
			}
			for _, path := range snaps {
				b, err := os.ReadFile(path)
				if err == nil {
					err = os.WriteFile(path, damage(b), 0o644)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			// A query below the cached (newest) snapshot must load an older
			// one from disk and see the damage.
			if _, err := s.GetGraph(6); err == nil {
				t.Error("a damaged snapshot must surface an error")
			}
		})
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
// readers trusting a frame's length field: one flipped bit in a .dsnap used
// to ask for up to 4 GiB before any check. The length is now bounded by the
// bytes left in the file, and the error names the file — for an active
// segment's snapshot and a sealed segment's chain element alike.
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
		for _, sealEvery := range []int{0, 60} {
			t.Run(fmt.Sprintf("sealEvery=%d/P%d", sealEvery, par), func(t *testing.T) {
				s := openStore(t, Options{SnapshotEveryOps: 1 << 30, GraphStoreBytes: 1,
					PartitionEvery: sealEvery, DeltaChainLength: 1, ParallelIO: par})
				for _, u := range propUpdates(50) {
					if err := s.Append(u); err != nil {
						t.Fatal(err)
					}
				}
				snapshotNow(t, s)
				chain := s.segs[0].elems()
				if s.segs[0].sealed != (sealEvery > 0) || len(chain) == 0 {
					t.Fatalf("segment p-1: sealed=%v with %d elements", s.segs[0].sealed, len(chain))
				}
				// A record frame: skip the header frame, whose length is intact.
				elem := chain[len(chain)-1]
				b, err := os.ReadFile(elem.path)
				if err != nil {
					t.Fatal(err)
				}
				corruptFrameLen(t, elem.path, frameHdrLen+int(binary.LittleEndian.Uint32(b)))
				check(t, elem.path, func() error {
					return s.applyChainFile(context.Background(), elem, memgraph.New(), nil, false)
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
}
