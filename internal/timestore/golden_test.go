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

// TestGoldenOnDiskBytes pins the one persisted-element format: a fixed
// update sequence must produce these exact full-/delta- .dsnap bytes in a
// sealed segment's chain (TestParallelSnapshotBytesIdentical extends that to
// every worker count), digests computed on the commit before the snapshot
// I/O was collapsed to one frame-file writer, so "format unchanged" is
// checked rather than asserted. The third digest that commit pinned, of the
// header-less active .snap, is retired with that format: an active segment's
// snapshot is now a headered full, so instead an eager snapshot taken at the
// sealed segment's end position must equal that segment's end full byte for
// byte, name included (same graph, same log, hence the same logOff too).
func TestGoldenOnDiskBytes(t *testing.T) {
	const (
		wantFull  = "9174d9addd5f328e971ca949afb536681b92bdfa104e156e5859dea6fe036d8b"
		wantDelta = "f6bd3ef6c0373c1bcc6b229fb78dd4696f4e2498109aa293f8364037132f9cab"
	)
	us := goldenUpdates()
	pdir := t.TempDir()
	p := openStore(t, Options{Dir: pdir, SnapshotEveryOps: 1 << 30,
		PartitionEvery: len(us) - 30, DeltaChainLength: 2})
	for _, u := range us {
		if err := p.Append(u); err != nil {
			t.Fatal(err)
		}
	}
	if st := p.Stats(); st.SealedPartitions != 1 || st.CompactErrors != 0 {
		t.Fatalf("%d sealed segments, %d compaction errors (%s)",
			st.SealedPartitions, st.CompactErrors, st.LastCompactError)
	}
	if got := digestFiles(t, filepath.Join(pdir, "p-1", "full-*.dsnap")); got != wantFull {
		t.Errorf("full .dsnap digest %s, want %s", got, wantFull)
	}
	if got := digestFiles(t, filepath.Join(pdir, "p-1", "delta-*.dsnap")); got != wantDelta {
		t.Errorf("delta .dsnap digest %s, want %s", got, wantDelta)
	}

	dir := t.TempDir()
	s := openStore(t, Options{Dir: dir, SnapshotEveryOps: 1 << 30})
	if err := s.AppendBatch(us[:p.segs[0].count]); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateSnapshot(); err != nil {
		t.Fatal(err)
	}
	chain := p.segs[0].elems()
	end := filepath.Base(chain[len(chain)-1].path)
	if got, want := digestFiles(t, filepath.Join(dir, "p-1", "*.dsnap")), digestFiles(t, filepath.Join(pdir, "p-1", end)); got != want {
		t.Errorf("the active segment's snapshot differs from the sealed end full %s", end)
	}
}

// TestGoldenActiveChain pins the bytes of an active segment's chain, beside
// the sealed chain's above: the golden history under a 90-operation policy
// and a two-delta chain is full, delta, delta, full, and there is no new
// format behind that. The fulls-only twin's digest was computed on the commit
// before the active chain wrote deltas, with that commit's default options,
// so its directory stands for "a store written by the parent": the twin must
// still produce it, the two stores' fulls are the same files byte for byte,
// and reopened with today's defaults the parent's directory answers every
// timestamp the way the delta store does, keeps its files, and takes a delta
// as its next policy element.
func TestGoldenActiveChain(t *testing.T) {
	const (
		wantParent = "dcd45f5c7bc40f7a839628af1d1407a7223fcfa11fd726b1afc371b499bf12dd"
		wantFull   = "a8d8281220a8b5bbacbdbab9773dd2a26d15e34d80c20a2a1254a27befa3ebfe"
		wantDelta  = "252a9b03914819053f1b59024a9305528cba41d9d78faf5d02a23f322c798022"
	)
	us := goldenUpdates()
	dir, pdir := t.TempDir(), t.TempDir()
	s := openStore(t, Options{Dir: dir, SnapshotEveryOps: 90, DeltaChainLength: 2})
	p := openBare(t, enc.NewCodec(strstore.NewMem()), Options{Dir: pdir, SnapshotEveryOps: 90, DeltaChainLength: -1})
	defer func() { p.Close() }()
	appendSettled(t, s, us)
	appendSettled(t, p, us)
	if got := elemKinds(s.active().elems()); got != "fddf" {
		t.Fatalf("active chain %s, want fddf", got)
	}
	if got := digestFiles(t, filepath.Join(pdir, "p-1", "*.dsnap")); got != wantParent {
		t.Errorf("fulls-only chain digest %s, want the parent's %s", got, wantParent)
	}
	if got := digestFiles(t, filepath.Join(dir, "p-1", "full-*.dsnap")); got != wantFull {
		t.Errorf("active full .dsnap digest %s, want %s", got, wantFull)
	}
	if got := digestFiles(t, filepath.Join(dir, "p-1", "delta-*.dsnap")); got != wantDelta {
		t.Errorf("active delta .dsnap digest %s, want %s", got, wantDelta)
	}
	for _, e := range s.active().elems() {
		if name := filepath.Base(e.path); e.kind == enc.DeltaFull &&
			digestFiles(t, e.path) != digestFiles(t, filepath.Join(pdir, "p-1", name)) {
			t.Errorf("%s differs from the fulls-only twin's", name)
		}
	}

	p = reopened(t, p, Options{Dir: pdir, SnapshotEveryOps: 90})
	if got := elemKinds(p.active().elems()); got != "ffff" {
		t.Fatalf("the parent's chain reopens as %s, want ffff", got)
	}
	maxTS := us[len(us)-1].TS
	o := &fenceOracle{t: t, codec: p.codec}
	for ts := model.Timestamp(0); ts <= maxTS; ts++ {
		if o.digest(mustGraph(t, p, ts).Export()) != o.digest(mustGraph(t, s, ts).Export()) {
			t.Fatalf("GetGraph(%d) differs between the parent's directory and the delta store", ts)
		}
	}
	var more []model.Update
	for i := 0; i < 100; i++ {
		more = append(more, model.AddNode(maxTS+1+model.Timestamp(i), model.NodeID(1000+i), []string{"Late"}, nil))
	}
	appendSettled(t, p, more)
	if got := elemKinds(p.active().elems()); got != "ffffd" {
		t.Errorf("the parent's chain continues as %s, want ffffd", got)
	}
	if got := digestFiles(t, filepath.Join(pdir, "p-1", "full-*.dsnap")); got != wantParent {
		t.Errorf("the parent's element files changed: digest %s, want %s", got, wantParent)
	}
	if g := mustGraph(t, p, maxTS+100); g.NodeCount() != 100+mustGraph(t, s, maxTS).NodeCount() {
		t.Errorf("GetGraph past the new delta has %d nodes", g.NodeCount())
	}
}
