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

// TestGoldenOnDiskBytes pins the one persisted-element format — an ADS2
// header frame, then one frame per block of up to 256 records: a fixed update
// sequence must produce these exact full-/delta- .dsnap bytes in a sealed
// segment's chain (TestParallelSnapshotBytesIdentical extends that to every
// worker count), and the segment log these exact bytes — the ATL2 marker,
// then one block frame per Append. An eager snapshot taken at the sealed
// segment's end position in an active segment fed the same appends must equal
// that segment's end full byte for byte, name included (same graph, same log,
// hence the same logOff too).
func TestGoldenOnDiskBytes(t *testing.T) {
	const (
		wantFull  = "4a5ab2a460b77e198300cc1f16e12795789edb210d0faa0934102f17ff1a77c4"
		wantDelta = "25ea352e19927da9469932a4d3d87e08c4432a76314c55d5eb7d11c2d20e09c1"
		wantLog   = "1c812437d7b29b23066f598b7ea1bfca57411049a188010341ffdca607625846"
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
	if got := digestFiles(t, filepath.Join(pdir, "p-1", "updates.log")); got != wantLog {
		t.Errorf("segment log digest %s, want %s", got, wantLog)
	}

	dir := t.TempDir()
	s := openStore(t, Options{Dir: dir, SnapshotEveryOps: 1 << 30})
	for _, u := range us[:p.segs[0].count] {
		if err := s.Append(u); err != nil {
			t.Fatal(err)
		}
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
// and a two-delta chain is full, delta, delta, full. Its fulls-only twin
// (DeltaChainLength < 0) is pinned too: the two stores' fulls are the same
// files byte for byte, and reopened with the default chain the twin's
// directory answers every timestamp the way the delta store does, keeps its
// files, and takes a delta as its next policy element — deltas are a policy,
// not a format.
func TestGoldenActiveChain(t *testing.T) {
	const (
		wantFullsOnly = "2286ef327ce1f376420118da8d67592e09217dc3a2eae3826a5468f36fd3a782"
		wantFull      = "f23395212c2eea4287fb56f1b31ca0b6f27481830c8ef75bfef725809d14d289"
		wantDelta     = "83b99598b6757044970525078c9ead9526236cd758724aee67fcfaf02e1d0ac6"
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
	if got := digestFiles(t, filepath.Join(pdir, "p-1", "*.dsnap")); got != wantFullsOnly {
		t.Errorf("fulls-only chain digest %s, want %s", got, wantFullsOnly)
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
	if got := elemKinds(p.active().elems()); got != "ffffd" {
		t.Errorf("the fulls-only chain continues as %s, want ffffd", got)
	}
	if got := digestFiles(t, filepath.Join(pdir, "p-1", "full-*.dsnap")); got != wantFullsOnly {
		t.Errorf("the fulls-only element files changed: digest %s, want %s", got, wantFullsOnly)
	}
	if g := mustGraph(t, p, maxTS+100); g.NodeCount() != 100+mustGraph(t, s, maxTS).NodeCount() {
		t.Errorf("GetGraph past the new delta has %d nodes", g.NodeCount())
	}
}
