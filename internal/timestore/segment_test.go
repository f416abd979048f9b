package timestore

// Recovery of the segment directory: what Open keeps of the chain a crash or
// a deletion left behind, and the layouts it refuses.

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"aion/internal/enc"
	"aion/internal/strstore"
	"aion/internal/testkit/vfstest"
	"aion/internal/wal"
)

// TestRecoveryDropsOrphanDeltas is the latent-bug regression: deleting a
// mid-chain full materialization orphans every delta based on it. Recovery
// must remove the orphans (applying a delta to the wrong base silently
// corrupts materialization) and a stray tmp, and the log answers for what
// they held: the diff is untouched and a graph inside their range is whole.
func TestRecoveryDropsOrphanDeltas(t *testing.T) {
	ctx := context.Background()
	us := genWorkload(120)
	codec := enc.NewCodec(strstore.NewMem())
	fs := vfstest.NewFaultFS()
	st, err := openCrashTS(fs, codec)
	if err != nil {
		t.Fatal(err)
	}
	if res := driveStore(st, us); res.attempted != len(us) {
		t.Fatalf("drive stopped after %d/%d updates", res.attempted, len(us))
	}
	// A full past the chain's first element, and the run of deltas on it.
	chain := st.seg.elems()
	victim := slices.IndexFunc(chain, func(e chainElem) bool { return e.kind == enc.DeltaFull && e.pos != chain[0].pos })
	var orphans []chainElem
	for k := victim + 1; victim > 0 && k < len(chain) && chain[k].kind == enc.DeltaDiff; k++ {
		orphans = append(orphans, chain[k])
	}
	if len(orphans) == 0 {
		t.Fatalf("chain %s has no mid-chain full with deltas on it", elemKinds(chain))
	}
	maxTS := us[len(us)-1].TS
	before, err := st.GetDiffContext(ctx, 0, maxTS+1)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate the orphaning: the mid-chain full disappears (torn disk,
	// manual deletion), and a stray snapshot tmp is left behind.
	if err := fs.Remove(chain[victim].path); err != nil {
		t.Fatal(err)
	}
	stray := chain[victim].path + ".tmp"
	f, err := fs.Create(stray)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("garbage"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := openCrashTS(fs, codec)
	if err != nil {
		t.Fatalf("reopen after orphaning: %v", err)
	}
	defer func() {
		if err := st2.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	names, err := fs.ReadDir(st2.seg.dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if strings.HasSuffix(name, ".tmp") {
			t.Errorf("leftover tmp after recovery: %s", name)
		}
	}
	for _, o := range orphans {
		if slices.Contains(names, filepath.Base(o.path)) {
			t.Errorf("orphaned delta %s still on disk", o.path)
		}
	}
	kept := st2.seg.elems()
	if want := len(chain) - 1 - len(orphans); len(kept) != want {
		t.Fatalf("recovered chain %s, want %d of the %d elements %s", elemKinds(kept), want, len(chain), elemKinds(chain))
	}
	for i, e := range kept {
		if e.kind == enc.DeltaDiff && (i == 0 || e.base != kept[i-1].pos) {
			t.Fatalf("recovered chain keeps delta %s without its base", e.path)
		}
	}
	// The store's contents are untouched.
	after, err := st2.GetDiffContext(ctx, 0, maxTS+1)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("recovered %d updates, want %d", len(after), len(before))
	}
	for i := range after {
		if string(encodeU(t, codec, after[i])) != string(encodeU(t, codec, before[i])) {
			t.Fatalf("update %d changed across orphan recovery", i)
		}
	}
	// A graph query landing where the orphans were materializes from the
	// log.
	o := &fenceOracle{t: t, us: us, pos: streamPositions(us), codec: codec}
	for _, e := range orphans {
		if o.digest(mustGraph(t, st2, e.pos.ts).Export()) != o.digest(o.graphAt(e.pos.ts).Export()) {
			t.Fatalf("GetGraph(%d) where an orphaned delta stood differs from the history", e.pos.ts)
		}
	}
}

// TestRecoveryDropsElementAheadOfLog: Open drops an element whose header
// places it past the end of the tail-repaired log, on that offset alone. The
// first file planted here names a position the log does hold, which placing
// by replay-and-compare would keep; the second case is the real one — a
// snapshot persisted before the log bytes it covers, which are then lost.
func TestRecoveryDropsElementAheadOfLog(t *testing.T) {
	dir := t.TempDir()
	codec := enc.NewCodec(strstore.NewMem())
	reopen := func(s *Store) *Store {
		t.Helper()
		if s != nil {
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
		s, err := Open(codec, Options{Dir: dir, SnapshotEveryOps: 1 << 30})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := reopen(nil)
	defer func() { s.Close() }()
	if err := s.AppendBatch(chainUpdates(10)); err != nil { // ts 1..19
		t.Fatal(err)
	}
	snapshotNow(t, s)
	keep := s.seg.elems()[0]
	ahead, err := s.writeChainElem(enc.DeltaFull, position{ts: 5}, position{}, keep.logOff+1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	s = reopen(s)
	if chain := s.seg.elems(); len(chain) != 1 || chain[0].path != keep.path {
		t.Fatalf("chain after reopen %+v, want only %s", chain, keep.path)
	}
	if _, err := os.Stat(ahead.path); !os.IsNotExist(err) {
		t.Errorf("element ahead of the log still on disk (stat: %v)", err)
	}
	logPath := s.seg.log.Path()
	s = reopen(s)
	if err := os.Truncate(logPath, keep.logOff-1); err != nil { // tears the last record
		t.Fatal(err)
	}
	s = reopen(s)
	if g, err := s.GetGraphContext(context.Background(), 19); err != nil || len(s.seg.elems()) != 0 || g.RelCount() != 8 {
		t.Fatalf("after losing the log tail: %d elements, graph %v (err %v); want none and the 8 rels still logged",
			len(s.seg.elems()), g, err)
	}
}

// TestOpenRejectsSealedLayout: a directory a sealing store wrote — the seal
// marker p-1/sealed, or a successor segment p-2/ — fails Open with the
// documented error naming the directory, and Open creates nothing beside it.
func TestOpenRejectsSealedLayout(t *testing.T) {
	for _, marker := range []string{filepath.Join("p-1", "sealed"), filepath.Join("p-2", "updates.log")} {
		dir := t.TempDir()
		path := filepath.Join(dir, marker)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, make([]byte, 48), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Open(enc.NewCodec(strstore.NewMem()), Options{Dir: dir})
		if err == nil || !strings.Contains(err.Error(), "no migration") || !strings.Contains(err.Error(), dir) {
			t.Fatalf("Open over %s: %v", marker, err)
		}
		if _, err := os.Stat(filepath.Join(dir, "p-1", "updates.log")); !os.IsNotExist(err) {
			t.Errorf("Open over %s started a log (stat: %v)", marker, err)
		}
	}
}

// TestOpenRejectsLegacyLayout: a directory written before segment
// directories (a top-level updates.log) fails Open with the documented
// error instead of silently starting an empty store beside it.
func TestOpenRejectsLegacyLayout(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "updates.log"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(enc.NewCodec(strstore.NewMem()), Options{Dir: dir})
	if err == nil || !strings.Contains(err.Error(), "no migration") {
		t.Fatalf("Open over a legacy layout: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "p-1")); !os.IsNotExist(err) {
		t.Errorf("Open started a fresh segment beside the legacy log (stat: %v)", err)
	}
}

// TestOpenRejectsPerRecordFrames: a segment log written before block frames —
// one wal record per update, no format marker — fails Open with the
// documented error naming the directory, and is left as it was, instead of
// having its records misparsed as blocks.
func TestOpenRejectsPerRecordFrames(t *testing.T) {
	dir := t.TempDir()
	codec := enc.NewCodec(strstore.NewMem())
	if err := os.MkdirAll(filepath.Join(dir, "p-1"), 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "p-1", "updates.log")
	log, err := wal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range chainUpdates(3) {
		rec, err := codec.EncodeUpdate(u)
		if err == nil {
			_, err = log.Append(rec)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Open(codec, Options{Dir: dir})
	if err == nil || !strings.Contains(err.Error(), "no migration") || !strings.Contains(err.Error(), dir) {
		t.Fatalf("Open over per-record log frames: %v", err)
	}
	if after, err := os.ReadFile(path); err != nil || string(after) != string(before) {
		t.Errorf("Open changed the log it refused (%v)", err)
	}
}

// TestOpenRejectsFixedRefLog: a segment log of the format before compact refs
// — the ATL2 marker, then blocks whose refs are 4 bytes wide — fails Open with
// the documented error naming the directory, and is left as it was, instead of
// having its refs misparsed as uvarints.
func TestOpenRejectsFixedRefLog(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "p-1"), 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "p-1", "updates.log")
	log, err := wal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	block, err := enc.NewFixedRefCodec(strstore.NewMem()).AppendBlock(nil, chainUpdates(3)[:1])
	if err == nil {
		_, err = log.AppendBatch([][]byte{[]byte("ATL2"), block})
	}
	if err = errors.Join(err, log.Close()); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Open(enc.NewCodec(strstore.NewMem()), Options{Dir: dir})
	if err == nil || !strings.Contains(err.Error(), "ATL2") || !strings.Contains(err.Error(), "no migration") || !strings.Contains(err.Error(), dir) {
		t.Fatalf("Open over an ATL2 log: %v", err)
	}
	if after, err := os.ReadFile(path); err != nil || string(after) != string(before) {
		t.Errorf("Open changed the log it refused (%v)", err)
	}
}
