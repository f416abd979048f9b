package timestore

import (
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"aion/internal/enc"
	"aion/internal/memgraph"
	"aion/internal/wal"
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
			if _, err := s.GetGraphContext(context.Background(), 6); err == nil {
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

// writeHeaderFile rewrites the element file at path as the one frame of hdr:
// what a header-only delta holds, mutated as a test likes.
func writeHeaderFile(t *testing.T, path string, hdr enc.DeltaHeader) {
	t.Helper()
	if err := os.WriteFile(path, wal.AppendRecord(nil, enc.AppendDeltaHeader(nil, hdr)), 0o644); err != nil {
		t.Fatal(err)
	}
}

// derived is the catalogue entry derivation makes of hdr at path.
func derived(hdr enc.DeltaHeader, path string) chainElem {
	return chainElem{
		kind: hdr.Kind, pos: position{ts: hdr.TS, seq: hdr.Seq},
		base:   position{ts: hdr.BaseTS, seq: hdr.BaseSeq},
		logOff: hdr.LogOff, count: hdr.Count, path: path,
	}
}

// TestCorruptFrameLengthRejectedBeforeAllocation is the regression for the
// readers trusting a frame's length field: one flipped bit in a .dsnap used
// to ask for up to 4 GiB before any check. The length is now bounded by the
// bytes left in the file, and the error names the file — for a full's record
// frame and for either kind's header frame. A delta holds its header alone,
// so its subtests also mutate the window that header names: a logOff inside
// a frame, at another frame boundary or before the base's, a Count one off
// and another base each fail closed, re-derived as recovery would derive
// them, where the true header applies to the oracle's graph.
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
	for _, kind := range []enc.DeltaKind{enc.DeltaFull, enc.DeltaDiff} {
		t.Run(fmt.Sprintf("kind=%s", kind), func(t *testing.T) {
			s := openStore(t, Options{SnapshotEveryOps: 1 << 30, GraphStoreBytes: 1,
				DeltaChainLength: 1})
			us := propUpdates(50)
			if err := s.AppendBatch(us[:60]); err != nil {
				t.Fatal(err)
			}
			snapshotNow(t, s)
			if kind == enc.DeltaDiff {
				if err := s.AppendBatch(us[60:]); err != nil {
					t.Fatal(err)
				}
				policySnapshotNow(t, s)
			}
			chain := s.seg.elems()
			k := len(chain) - 1
			if k < 0 || chain[k].kind != kind {
				t.Fatalf("chain %s does not end in a %s", elemKinds(chain), kind)
			}
			elem := chain[k]
			b, err := os.ReadFile(elem.path)
			if err != nil {
				t.Fatal(err)
			}
			o := &fenceOracle{t: t, us: us, pos: streamPositions(us), codec: s.codec}
			// apply returns the reader's error; a chain it accepts must
			// build the history's graph.
			apply := func(chain []chainElem) error {
				t.Helper()
				g := memgraph.New()
				for j := range chain {
					if err := s.applyChainFile(context.Background(), chain, j, g, nil, false); err != nil {
						return err
					}
				}
				g.SetTimestamp(chain[k].pos.ts)
				if o.digest(g.Export()) != o.digest(o.graphAt(chain[k].pos.ts).Export()) {
					t.Errorf("the chain ending in %+v built another graph than the history's at %d", chain[k], chain[k].pos.ts)
				}
				return nil
			}
			if kind == enc.DeltaDiff {
				if int64(len(b)) != headerFrameLen(derivedHeader(t, b)) {
					t.Fatalf("a delta of %d bytes is more than its header frame", len(b))
				}
				if err := apply(chain); err != nil {
					t.Fatalf("the delta as written: %v", err)
				}
				hdr, base := derivedHeader(t, b), chain[k-1]
				var frameOffs []int64
				if _, err := s.seg.log.Scan(base.logOff, func(off int64, _ []byte) bool {
					frameOffs = append(frameOffs, off) // the window's frames: the delta ends the log
					return true
				}); err != nil {
					t.Fatal(err)
				}
				for name, mutate := range map[string]func(h *enc.DeltaHeader){
					"logOff inside a frame": func(h *enc.DeltaHeader) { h.LogOff-- },
					"logOff a frame short":  func(h *enc.DeltaHeader) { h.LogOff = frameOffs[len(frameOffs)-2] },
					"window a frame short": func(h *enc.DeltaHeader) { // its one record off the count too
						h.LogOff, h.Count = frameOffs[len(frameOffs)-1], h.Count-1
					},
					"logOff before its base": func(h *enc.DeltaHeader) { h.LogOff = base.logOff - 1 },
					"logOff past the log":    func(h *enc.DeltaHeader) { h.LogOff = s.seg.log.Size() + 1 },
					"count one more":         func(h *enc.DeltaHeader) { h.Count++ },
					"count one less":         func(h *enc.DeltaHeader) { h.Count-- },
					"base another position":  func(h *enc.DeltaHeader) { h.BaseSeq++ },
					"base the genesis":       func(h *enc.DeltaHeader) { h.BaseTS = -1 },
				} {
					m := hdr
					mutate(&m)
					writeHeaderFile(t, elem.path, m)
					mutated := slices.Clone(chain)
					mutated[k] = derived(m, elem.path)
					if err := apply(mutated); err == nil {
						t.Errorf("%s: a delta with header %+v applied", name, m)
					}
				}
				writeHeaderFile(t, elem.path, hdr)
			} else {
				// A record frame: skip the header frame, whose length is intact.
				corruptFrameLen(t, elem.path, int(wal.Size(b)))
				check(t, elem.path, func() error {
					return s.applyChainFile(context.Background(), chain, k, memgraph.New(), nil, false)
				})
			}
			// The header frame itself, as every reader reads it.
			corruptFrameLen(t, elem.path, 0)
			check(t, elem.path, func() error {
				return s.applyChainFile(context.Background(), chain, k, memgraph.New(), nil, false)
			})
			check(t, elem.path, func() error {
				_, err := readChainHeader(s.fs, elem.path)
				return err
			})
		})
	}
}

// derivedHeader decodes the header frame at the front of an element file.
func derivedHeader(t *testing.T, b []byte) enc.DeltaHeader {
	t.Helper()
	payload, _, err := wal.Cut(b)
	if err != nil {
		t.Fatal(err)
	}
	hdr, err := enc.DecodeDeltaHeader(payload)
	if err != nil {
		t.Fatal(err)
	}
	return hdr
}
