package timestore

// The global reads of a stand-alone TimeStore held to internal/refmodel: a
// seeded history whose log frames come in every shape AppendBatch makes —
// batches spanning several timestamps, timestamps spanning several batches —
// read back through fences laid every few records, policy elements, an eager
// element in the middle of a timestamp and a seal, before and after a clean
// reopen.

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"aion/internal/enc"
	"aion/internal/model"
	"aion/internal/refmodel"
	"aion/internal/strstore"
)

// modelDigest encodes updates record by record, label and key lists sorted (a
// snapshot stores them so): equal digests are the same updates.
func modelDigest(t *testing.T, codec *enc.Codec, us []model.Update) string {
	t.Helper()
	var b []byte
	for _, u := range us {
		u.AddLabels, u.DelLabels, u.DelProps = slices.Clone(u.AddLabels), slices.Clone(u.DelLabels), slices.Clone(u.DelProps)
		u.Normalize()
		var err error
		if b, err = codec.AppendUpdate(append(b, '|'), u); err != nil {
			t.Fatal(err)
		}
	}
	return string(b)
}

// feedHistory appends a seeded refmodel history of about n updates to s: a
// third of the time two or three commits in one batch, a third of the time
// one commit in two batches — with an eager snapshot between the two once,
// half-way — and otherwise a commit a batch. It returns the history.
func feedHistory(t *testing.T, s *Store, seed int64, n int) *refmodel.History {
	t.Helper()
	h, rng := refmodel.NewHistory(seed), rand.New(rand.NewSource(seed))
	var commits [][]model.Update
	for len(h.Updates) < n {
		if us := h.Commit(1 + rng.Intn(6)); len(us) > 0 {
			commits = append(commits, us)
		}
	}
	appendBatch := func(us []model.Update) {
		t.Helper()
		if err := s.AppendBatch(us); err != nil {
			t.Fatal(err)
		}
	}
	merged, split, eager := 0, 0, false
	for i := 0; i < len(commits); i++ {
		switch r := rng.Intn(3); {
		case r == 0 && i+1 < len(commits):
			k := min(i+2+rng.Intn(2), len(commits))
			appendBatch(slices.Concat(commits[i:k]...))
			merged, i = merged+1, k-1
		case r == 1 && len(commits[i]) > 1:
			cut := 1 + rng.Intn(len(commits[i])-1)
			appendBatch(commits[i][:cut])
			if !eager && i >= len(commits)/2 {
				snapshotNow(t, s) // mid-timestamp
				eager = true
			}
			appendBatch(commits[i][cut:])
			split++
		default:
			appendBatch(commits[i])
		}
	}
	if merged == 0 || split == 0 || !eager {
		t.Fatalf("%d merged batches, %d split timestamps, eager snapshot %v: the history does not reach every frame shape", merged, split, eager)
	}
	s.WaitSnapshots()
	return h
}

// checkGlobalReads holds s's global reads to the model of h at every commit
// timestamp: GetGraph and GetGraphs against Model.Graph, GetDiff from every
// element's and every fence's position against Model.Diff, and a scan from
// every stream position — a frame's inner records included — against the
// stream's suffix.
func checkGlobalReads(t *testing.T, s *Store, h *refmodel.History, label string) {
	t.Helper()
	codec := enc.NewCodec(strstore.NewMem())
	m := &refmodel.Model{}
	m.Apply(h.Updates...)
	last := h.TS
	graphs, err := s.GetGraphs(0, last, 1)
	if err != nil || len(graphs) != int(last)+1 {
		t.Fatalf("%s: GetGraphs(0, %d, 1): %d graphs, %v", label, last, len(graphs), err)
	}
	for at := model.Timestamp(0); at <= last; at++ {
		want := modelDigest(t, codec, m.Graph(at))
		if modelDigest(t, codec, mustGraph(t, s, at).Export()) != want {
			t.Fatalf("%s: GetGraph(%d) differs from the model", label, at)
		}
		if modelDigest(t, codec, graphs[at].Export()) != want {
			t.Fatalf("%s: GetGraphs' step at %d differs from the model", label, at)
		}
	}
	var from []model.Timestamp
	for _, seg := range s.segs {
		for _, e := range seg.elems() {
			from = append(from, e.pos.ts, e.pos.ts+1)
		}
		for _, f := range seg.fences {
			from = append(from, f.pos.ts, f.pos.ts+1)
		}
	}
	for _, a := range from {
		for _, b := range []model.Timestamp{a + 2, last + 1} {
			diff, err := s.GetDiff(a, b)
			if err != nil {
				t.Fatalf("%s: GetDiff(%d, %d): %v", label, a, b, err)
			}
			if modelDigest(t, codec, diff) != modelDigest(t, codec, m.Diff(a, b)) {
				t.Fatalf("%s: GetDiff(%d, %d) differs from the model", label, a, b)
			}
		}
	}
	for i, p := range streamPositions(h.Updates) {
		var got, want []model.Update
		for _, u := range h.Updates[i+1:] {
			if u.TS < p.ts+3 {
				want = append(want, u)
			}
		}
		s.sealMu.RLock()
		err := s.scanFromLocked(context.Background(), p, p.ts+3, func(u model.Update) bool {
			got = append(got, u)
			return true
		})
		s.sealMu.RUnlock()
		if err != nil {
			t.Fatalf("%s: scan from %+v: %v", label, p, err)
		}
		if modelDigest(t, codec, got) != modelDigest(t, codec, want) {
			t.Fatalf("%s: the scan from update %d %+v differs from the stream", label, i, p)
		}
	}
}

// TestGlobalReadsMatchTheReferenceModel: every global read of a stand-alone
// store fed in every frame shape, with a fence every five records, small
// policy intervals, one seal and an eager element mid-timestamp, equals the
// model's — live, and after a clean reopen with a one-entry cache, so every
// base comes from the files.
func TestGlobalReadsMatchTheReferenceModel(t *testing.T) {
	defer func(old int) { fenceStride = old }(fenceStride)
	fenceStride = 5
	const n = 600
	opts := Options{Dir: t.TempDir(), SnapshotEveryOps: 24, PartitionEvery: n * 11 / 20, DeltaChainLength: 2, ParallelIO: 2}
	s := openBare(t, enc.NewCodec(strstore.NewMem()), opts)
	defer func() { s.Close() }()
	h := feedHistory(t, s, 5, n)
	if got := len(s.SealedBounds()); got != 1 {
		t.Fatalf("%d seals, want 1", got)
	}
	if len(s.active().fences) < 10 || s.Stats().DeltaSnapshots == 0 {
		t.Fatalf("%d fences and %d deltas in the active segment: too few to check", len(s.active().fences), s.Stats().DeltaSnapshots)
	}
	checkGlobalReads(t, s, h, "live")
	opts.GraphStoreBytes = 1
	s = reopened(t, s, opts)
	checkGlobalReads(t, s, h, "reopened")
}
