package timestore

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"aion/internal/enc"
	"aion/internal/model"
	"aion/internal/strstore"
)

// goldenUpdates is the fixed update sequence behind the pinned digests:
// every operation kind, several updates per timestamp, string/int
// properties and label churn, so full and differential elements both carry
// non-trivial records.
func goldenUpdates() []model.Update {
	const n = 120
	var us []model.Update
	ts := model.Timestamp(1)
	for i := 0; i < n; i++ {
		us = append(us, model.AddNode(ts, model.NodeID(i),
			[]string{"Person", fmt.Sprintf("Group%d", i%5)},
			model.Properties{
				"name": model.StringValue(fmt.Sprintf("node-%d", i)),
				"rank": model.IntValue(int64(i % 17)),
			}))
		if i%3 == 2 {
			ts++
		}
	}
	ts++
	for i := 0; i < n-1; i++ {
		us = append(us, model.AddRel(ts, model.RelID(i), model.NodeID(i), model.NodeID(i+1),
			"KNOWS", model.Properties{"w": model.IntValue(int64(i))}))
		if i%4 == 3 {
			ts++
		}
	}
	ts++
	for i := 0; i < n; i += 2 {
		us = append(us, model.UpdateNode(ts, model.NodeID(i),
			[]string{"Seen"}, []string{fmt.Sprintf("Group%d", i%5)},
			model.Properties{"rank": model.IntValue(int64(1000 + i))}, []string{"name"}))
		if i%6 == 0 {
			ts++
		}
	}
	for i := 0; i < n-1; i += 3 {
		us = append(us, model.UpdateRel(ts, model.RelID(i), model.NodeID(i), model.NodeID(i+1),
			model.Properties{"note": model.StringValue(fmt.Sprintf("rel-%d", i))}, []string{"w"}))
		ts++
	}
	for i := 0; i < 20; i++ {
		us = append(us, model.DeleteRel(ts, model.RelID(i), model.NodeID(i), model.NodeID(i+1)))
	}
	ts++
	for i := 0; i < 20; i++ {
		us = append(us, model.DeleteNode(ts, model.NodeID(i)))
		ts++
	}
	return us
}

// digestFiles hashes every file matching pattern (sorted by path) as
// name NUL content, so one digest pins both the set of file names and
// their bytes.
func digestFiles(t *testing.T, pattern string) string {
	t.Helper()
	files, err := filepath.Glob(pattern)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatalf("no files match %s", pattern)
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(filepath.Base(f)))
		h.Write([]byte{0})
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenOnDiskBytes pins the segment log's bytes — the ATL3 marker, then
// one block frame per Append — for a fixed prefix of the golden sequence, and
// the bytes of an eager full taken at its end, name included: an ADS2 header
// frame, then one frame per block of up to 256 records (TestGoldenMultiFrameFull
// pins a full of several).
// The prefix ends where a store of the sealing layout closed its first
// segment, and the two digests are that segment's log and end full.
func TestGoldenOnDiskBytes(t *testing.T) {
	const (
		wantEndFull = "77fbb5bdeb713a7891c7fbe84427624c0c9c30c0a7de315430dbc68f63eaa5d3"
		wantLog     = "0f2f2dd40c87eb8829eb60551b456efa70884f9e56b344e79809bab12c00750c"
	)
	us := goldenUpdates()
	n := len(us) - 30 // the prefix runs on to the end of a timestamp
	for us[n].TS == us[n-1].TS {
		n++
	}
	dir := t.TempDir()
	s := openStore(t, Options{Dir: dir, SnapshotEveryOps: 1 << 30})
	for _, u := range us[:n] {
		if err := s.Append(u); err != nil {
			t.Fatal(err)
		}
	}
	if got := digestFiles(t, filepath.Join(dir, "p-1", "updates.log")); got != wantLog {
		t.Errorf("segment log digest %s, want %s", got, wantLog)
	}
	if err := s.CreateSnapshot(); err != nil {
		t.Fatal(err)
	}
	if got := digestFiles(t, filepath.Join(dir, "p-1", "*.dsnap")); got != wantEndFull {
		t.Errorf("eager full .dsnap digest %s, want %s", got, wantEndFull)
	}
}

// TestGoldenMultiFrameFull pins the bytes of an eager full that spans several
// block frames: propUpdates(500) is 999 records, a header frame and then four
// blocks of up to frameBatchRecords records, the last one short.
func TestGoldenMultiFrameFull(t *testing.T) {
	const want = "580d7d918cea5f90e377558f1c36ebf9de2d719a1bceb88b9e8411084f8de3e4"
	dir := t.TempDir()
	s := openStore(t, Options{Dir: dir, SnapshotEveryOps: 1 << 30})
	if err := s.AppendBatch(propUpdates(500)); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateSnapshot(); err != nil {
		t.Fatal(err)
	}
	files := snapshotFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("%d element files, want one full", len(files))
	}
	frames, err := readFrames(s.fs, files[0], false)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 5 {
		t.Fatalf("the full holds %d frames, want a header and 4 blocks", len(frames))
	}
	if got := digestFiles(t, files[0]); got != want {
		t.Errorf("multi-frame full digest %s, want %s", got, want)
	}
}

// TestGoldenActiveChain pins the bytes of a policy chain: the golden history
// under a 90-operation policy and a two-delta chain is full, delta, delta,
// full. Its fulls-only twin
// (DeltaChainLength < 0) is pinned too: the two stores' fulls are the same
// files byte for byte, and reopened with the default chain the twin's
// directory answers every timestamp the way the delta store does, keeps its
// files, and takes a delta as its next policy element — deltas are a policy,
// not a format.
func TestGoldenActiveChain(t *testing.T) {
	const (
		wantFullsOnly = "ef68e6f7d4a9b5dc27e5d0afe337384c66f749d01daa547717b3180be651ed20"
		wantFull      = "59a49c1b422908ae7d7a12dcce8ec1a3ffb8701f69aff4a170a5346500e3bc43"
		wantDelta     = "2b74a844aa39d26b89854d9a0962ebf8d9e9b3696048b41fae5890f3743ae55e"
	)
	us := goldenUpdates()
	dir, pdir := t.TempDir(), t.TempDir()
	s := openStore(t, Options{Dir: dir, SnapshotEveryOps: 90, DeltaChainLength: 2})
	p := openBare(t, enc.NewCodec(strstore.NewMem()), Options{Dir: pdir, SnapshotEveryOps: 90, DeltaChainLength: -1})
	defer func() { p.Close() }()
	appendSettled(t, s, us)
	appendSettled(t, p, us)
	if got := elemKinds(s.seg.elems()); got != "fddf" {
		t.Fatalf("policy chain %s, want fddf", got)
	}
	if got := digestFiles(t, filepath.Join(pdir, "p-1", "*.dsnap")); got != wantFullsOnly {
		t.Errorf("fulls-only chain digest %s, want %s", got, wantFullsOnly)
	}
	if got := digestFiles(t, filepath.Join(dir, "p-1", "full-*.dsnap")); got != wantFull {
		t.Errorf("policy full .dsnap digest %s, want %s", got, wantFull)
	}
	if got := digestFiles(t, filepath.Join(dir, "p-1", "delta-*.dsnap")); got != wantDelta {
		t.Errorf("policy delta .dsnap digest %s, want %s", got, wantDelta)
	}
	for _, e := range s.seg.elems() {
		if name := filepath.Base(e.path); e.kind == enc.DeltaFull &&
			digestFiles(t, e.path) != digestFiles(t, filepath.Join(pdir, "p-1", name)) {
			t.Errorf("%s differs from the fulls-only twin's", name)
		}
	}

	p = reopened(t, p, Options{Dir: pdir, SnapshotEveryOps: 90})
	if got := elemKinds(p.seg.elems()); got != "ffff" {
		t.Fatalf("the fulls-only chain reopens as %s, want ffff", got)
	}
	maxTS := us[len(us)-1].TS
	o := &fenceOracle{t: t, codec: p.codec}
	for ts := model.Timestamp(0); ts <= maxTS; ts++ {
		if o.digest(mustGraph(t, p, ts).Export()) != o.digest(mustGraph(t, s, ts).Export()) {
			t.Fatalf("GetGraph(%d) differs between the fulls-only directory and the delta store", ts)
		}
	}
	var more []model.Update
	for i := 0; i < 100; i++ {
		more = append(more, model.AddNode(maxTS+1+model.Timestamp(i), model.NodeID(1000+i), []string{"Late"}, nil))
	}
	appendSettled(t, p, more)
	if got := elemKinds(p.seg.elems()); got != "ffffd" {
		t.Errorf("the fulls-only chain continues as %s, want ffffd", got)
	}
	if got := digestFiles(t, filepath.Join(pdir, "p-1", "full-*.dsnap")); got != wantFullsOnly {
		t.Errorf("the fulls-only element files changed: digest %s, want %s", got, wantFullsOnly)
	}
	if g := mustGraph(t, p, maxTS+100); g.NodeCount() != 100+mustGraph(t, s, maxTS).NodeCount() {
		t.Errorf("GetGraph past the new delta has %d nodes", g.NodeCount())
	}
}
