package timestore

// Crash and recovery tests for the seal protocol, extending the
// crash_test.go sweep: the seal's durable steps (log sync, marker write,
// successor segment, compaction's chain writes) are crashed at every
// mutating-operation index, and recovery must always land in one of exactly
// two states — the seal committed (marker durable, segment immutable, a
// successor active) or not (the segment still active) — and never lose an
// acked commit.

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"aion/internal/enc"
	"aion/internal/model"
	"aion/internal/strstore"
	"aion/internal/vfs"
	"aion/internal/wal"
)

func openCrashSealTS(fs vfs.FS, codec *enc.Codec) (*Store, error) {
	return Open(codec, Options{
		Dir:              "ts",
		SnapshotEveryOps: 1 << 30, // policy off: the driver snapshots eagerly
		PartitionEvery:   40,
		DeltaChainLength: 2,
		ParallelIO:       1,
		FS:               fs,
	})
}

// verifySealedLayout asserts the recovered directory tree: p-1..p-k each
// hold a marker and a log, p-(k+1) is the active segment — a log, no marker
// — and nothing lies past it.
func verifySealedLayout(t *testing.T, k int, torn bool, fs vfs.FS, st *Store) {
	t.Helper()
	for n := 1; n <= len(st.segs)+1; n++ {
		names, err := fs.ReadDir("ts/p-" + strconv.Itoa(n))
		if err != nil {
			t.Fatalf("k=%d torn=%v: read p-%d: %v", k, torn, n, err)
		}
		hasMarker, hasLog := false, false
		for _, name := range names {
			hasMarker = hasMarker || name == partMarkerName
			hasLog = hasLog || name == "updates.log"
			if strings.HasSuffix(name, ".tmp") {
				t.Errorf("k=%d torn=%v: leftover tmp in p-%d: %s", k, torn, n, name)
			}
		}
		switch {
		case n < len(st.segs) && !(hasMarker && hasLog):
			t.Fatalf("k=%d torn=%v: sealed p-%d marker=%v log=%v, want both", k, torn, n, hasMarker, hasLog)
		case n == len(st.segs) && (hasMarker || !hasLog):
			t.Fatalf("k=%d torn=%v: active p-%d marker=%v log=%v, want only the log", k, torn, n, hasMarker, hasLog)
		case n > len(st.segs) && len(names) > 0:
			t.Errorf("k=%d torn=%v: p-%d past the active segment holds %v", k, torn, n, names)
		}
	}
}

func runSealCrashCase(t *testing.T, us []model.Update, k int, torn bool) {
	t.Helper()
	codec := enc.NewCodec(strstore.NewMem())
	fs := vfs.NewFaultFS()
	fs.SetTornSync(torn)
	fs.SetFailAfter(int64(k))
	var res driveResult
	st, err := openCrashSealTS(fs, codec)
	if err == nil {
		res = driveStore(st, us)
		reapWorker(st)
	}
	fs.Crash()
	st2, err := openCrashSealTS(fs, codec)
	if err != nil {
		t.Fatalf("k=%d torn=%v: reopen after crash failed: %v", k, torn, err)
	}
	verifyRecovered(t, k, torn, codec, st2, us, res)
	verifySealedLayout(t, k, torn, fs, st2)
	reapWorker(st2)
}

// TestCrashSweepSeal crashes a sealing workload at every mutating-operation
// index in both fail modes. The workload crosses three seal boundaries, so
// every fault index inside every stage of the seal protocol — log sync,
// marker write, successor segment, compaction's chain writes — is hit at
// least once.
func TestCrashSweepSeal(t *testing.T) {
	us := genWorkload(150)
	codec := enc.NewCodec(strstore.NewMem())
	fs := vfs.NewFaultFS()
	st, err := openCrashSealTS(fs, codec)
	if err != nil {
		t.Fatal(err)
	}
	res := driveStore(st, us)
	if res.attempted != len(us) {
		t.Fatalf("fault-free run stopped after %d/%d updates", res.attempted, len(us))
	}
	if got := len(st.segs) - 1; got < 3 {
		t.Fatalf("fault-free run sealed %d segments, want >= 3", got)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	n := int(fs.Ops())
	t.Logf("sweeping %d fault indexes × 2 modes over a %d-update, %d-seal workload",
		n, len(us), 3)
	for _, torn := range []bool{false, true} {
		for k := 1; k <= n; k++ {
			runSealCrashCase(t, us, k, torn)
		}
	}
}

// TestRecoveryDropsOrphanDeltas is the latent-bug regression: deleting a
// mid-chain full materialization orphans every delta based on it. Recovery
// must remove the orphans (applying a delta to the wrong base silently
// corrupts materialization), notice the chain is no longer complete, drop
// it, and recompact from the segment's log — after which queries are whole
// again.
func TestRecoveryDropsOrphanDeltas(t *testing.T) {
	us := genWorkload(120)
	codec := enc.NewCodec(strstore.NewMem())
	fs := vfs.NewFaultFS()
	st, err := openCrashSealTS(fs, codec)
	if err != nil {
		t.Fatal(err)
	}
	res := driveStore(st, us)
	if res.attempted != len(us) {
		t.Fatalf("drive stopped after %d/%d updates", res.attempted, len(us))
	}
	if len(st.segs) == 1 {
		t.Fatal("workload sealed no segment")
	}
	// Pick a sealed segment whose chain has a full beyond the entry full.
	var victim string
	var pdir string
	for _, p := range st.segs[:len(st.segs)-1] {
		for _, c := range p.elems()[1:] {
			if c.kind == enc.DeltaFull {
				victim, pdir = c.path, p.dir
				break
			}
		}
		if victim != "" {
			break
		}
	}
	if victim == "" {
		t.Fatal("no mid-chain full to delete; tune DeltaChainLength or workload size")
	}
	before, err := st.GetDiff(0, us[len(us)-1].TS+1)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate the orphaning: the mid-chain full disappears (torn disk,
	// manual deletion), and a stray compaction tmp is left behind.
	if err := fs.Remove(victim); err != nil {
		t.Fatal(err)
	}
	stray := pdir + "/full-ffffffffffffffff-00000000.dsnap.tmp"
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

	st2, err := openCrashSealTS(fs, codec)
	if err != nil {
		t.Fatalf("reopen after orphaning: %v", err)
	}
	defer func() {
		if err := st2.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	names, err := fs.ReadDir(pdir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if strings.HasSuffix(name, ".tmp") {
			t.Errorf("leftover tmp after recovery: %s", name)
		}
	}
	// Recompaction restored a complete chain in every sealed segment.
	for _, p := range st2.segs[:len(st2.segs)-1] {
		if !chainComplete(p, p.elems()) {
			t.Fatalf("segment %s chain not recompacted to completeness", p.dir)
		}
	}
	// And the store's contents are untouched.
	after, err := st2.GetDiff(0, us[len(us)-1].TS+1)
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
	// A graph query landing inside the recompacted segment materializes.
	mid := us[len(us)/3].TS
	g, err := st2.GetGraph(mid)
	if err != nil {
		t.Fatalf("GetGraph(%d) through recompacted chain: %v", mid, err)
	}
	if g.NodeCount() == 0 {
		t.Error("recompacted materialization is empty")
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
	keep := s.active().elems()[0]
	ahead, err := s.writeChainElem(s.active(), enc.DeltaFull, position{ts: 5}, position{}, keep.logOff+1, nil)
	if err != nil {
		t.Fatal(err)
	}
	s = reopen(s)
	if chain := s.active().elems(); len(chain) != 1 || chain[0].path != keep.path {
		t.Fatalf("chain after reopen %+v, want only %s", chain, keep.path)
	}
	if _, err := os.Stat(ahead.path); !os.IsNotExist(err) {
		t.Errorf("element ahead of the log still on disk (stat: %v)", err)
	}
	logPath := s.active().log.Path()
	s = reopen(s)
	if err := os.Truncate(logPath, keep.logOff-1); err != nil { // tears the last record
		t.Fatal(err)
	}
	s = reopen(s)
	if g, err := s.GetGraph(19); err != nil || len(s.active().elems()) != 0 || g.RelCount() != 8 {
		t.Fatalf("after losing the log tail: %d elements, graph %v (err %v); want none and the 8 rels still logged",
			len(s.active().elems()), g, err)
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
