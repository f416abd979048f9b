package tstest_test

// Metamorphic query tests: properties that must hold between related
// queries regardless of physical layout. The central one is diff
// composition — GetDiff over [ts1, ts2) must equal the concatenation of
// GetDiff over [ts1, tm) and [tm, ts2) for ANY midpoint tm, including
// midpoints sitting where a policy snapshot fell due, where the two halves
// start their walks from different chain elements.

import (
	"context"
	"math/rand"
	"testing"

	"aion/internal/model"
	"aion/internal/testkit/tstest"
	"aion/internal/timestore"
)

func timestoreOptsForComposition() timestore.Options {
	return timestore.Options{SnapshotEveryOps: 40, DeltaChainLength: 2}
}

// composeDiff concatenates the two half-window diffs through the
// comparator so the result is directly comparable to the full window.
func composeDiff(t *testing.T, cmp *tstest.Comparator, st *tstest.Store, ts1, tm, ts2 model.Timestamp) string {
	ctx := context.Background()
	t.Helper()
	lo, err := st.GetDiffContext(ctx, ts1, tm)
	if err != nil {
		t.Fatalf("GetDiff(%d,%d): %v", ts1, tm, err)
	}
	hi, err := st.GetDiffContext(ctx, tm, ts2)
	if err != nil {
		t.Fatalf("GetDiff(%d,%d): %v", tm, ts2, err)
	}
	return cmp.Digest(t, lo) + cmp.Digest(t, hi)
}

func assertComposes(t *testing.T, cmp *tstest.Comparator, st *tstest.Store, ts1, tm, ts2 model.Timestamp) {
	t.Helper()
	full, err := st.GetDiffContext(context.Background(), ts1, ts2)
	if err != nil {
		t.Fatalf("GetDiff(%d,%d): %v", ts1, ts2, err)
	}
	if got, want := composeDiff(t, cmp, st, ts1, tm, ts2), cmp.Digest(t, full); got != want {
		t.Fatalf("GetDiff(%d,%d) != GetDiff(%d,%d) ++ GetDiff(%d,%d)",
			ts1, ts2, ts1, tm, tm, ts2)
	}
}

// TestDiffComposition checks the composition property on a delta-chain
// store for random windows and midpoints, then forces every point a policy
// snapshot fell due (and the timestamp after it) to serve as the midpoint of
// a window straddling it.
func TestDiffComposition(t *testing.T) {
	us := tstest.GenWorkload(13, 400)
	maxTS := us[len(us)-1].TS
	cmp := tstest.NewComparator()
	st := tstest.OpenStore(t, timestoreOptsForComposition())
	tstest.Drive(t, st, us, 25)
	st.WaitSnapshots()
	if got := st.Stats().Snapshots; got < 5 {
		t.Fatalf("workload's policy took %d snapshots, want >= 5", got)
	}

	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 60; i++ {
		ts1 := model.Timestamp(rng.Int63n(int64(maxTS)))
		ts2 := ts1 + 1 + model.Timestamp(rng.Int63n(int64(maxTS-ts1)+2))
		tm := ts1 + model.Timestamp(rng.Int63n(int64(ts2-ts1)+1))
		assertComposes(t, cmp, st, ts1, tm, ts2)
	}

	// Midpoints pinned to the policy's due points: the lower half ends at or
	// just before a chain element, the upper half starts at or past it.
	for _, b := range dueAt(us, st.Opts.SnapshotEveryOps) {
		for _, tm := range []model.Timestamp{b, b + 1} {
			assertComposes(t, cmp, st, 0, tm, maxTS+1)
			assertComposes(t, cmp, st, b-5, tm, b+6)
			assertComposes(t, cmp, st, tm, tm, tm) // degenerate: empty everywhere
		}
	}
	// Degenerate midpoints at the window edges.
	assertComposes(t, cmp, st, 0, 0, maxTS+1)
	assertComposes(t, cmp, st, 0, maxTS+1, maxTS+1)

	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestScanDiffMatchesGetDiff: streaming and collecting forms of the same
// query must agree, and early termination must be a strict prefix.
func TestScanDiffMatchesGetDiff(t *testing.T) {
	ctx := context.Background()
	us := tstest.GenWorkload(29, 300)
	maxTS := us[len(us)-1].TS
	cmp := tstest.NewComparator()
	st := tstest.OpenStore(t, timestoreOptsForComposition())
	tstest.Drive(t, st, us, 25)

	all, err := st.GetDiffContext(context.Background(), 0, maxTS+1)
	if err != nil {
		t.Fatal(err)
	}
	var scanned []model.Update
	if err := st.ScanDiffContext(ctx, 0, maxTS+1, func(u model.Update) bool {
		scanned = append(scanned, u)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if cmp.Digest(t, scanned) != cmp.Digest(t, all) {
		t.Fatal("ScanDiff stream differs from GetDiff collection")
	}

	// Early stop after half the stream: strict prefix, no error.
	var prefix []model.Update
	limit := len(all) / 2
	if err := st.ScanDiffContext(ctx, 0, maxTS+1, func(u model.Update) bool {
		prefix = append(prefix, u)
		return len(prefix) < limit
	}); err != nil {
		t.Fatal(err)
	}
	if len(prefix) != limit {
		t.Fatalf("early-stopped scan yielded %d updates, want %d", len(prefix), limit)
	}
	if cmp.Digest(t, prefix) != cmp.Digest(t, all[:limit]) {
		t.Fatal("early-stopped scan is not a prefix of the full stream")
	}

	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}
