package aion

import (
	"errors"
	"os"
	"testing"

	"aion/internal/algo"
	"aion/internal/model"
)

func openDB(t *testing.T, opts Options) *DB {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := db.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return db
}

// socialUpdates builds a small social graph: Person nodes 0..9 at ts 1..10,
// KNOWS rels forming a ring at ts 11..20, a property update at 21, a rel
// deletion at 22.
func socialUpdates() []model.Update {
	var us []model.Update
	ts := model.Timestamp(1)
	for i := 0; i < 10; i++ {
		us = append(us, model.AddNode(ts, model.NodeID(i), []string{"Person"},
			model.Properties{"name": model.StringValue(string(rune('a' + i)))}))
		ts++
	}
	for i := 0; i < 10; i++ {
		us = append(us, model.AddRel(ts, model.RelID(i), model.NodeID(i), model.NodeID((i+1)%10), "KNOWS", nil))
		ts++
	}
	us = append(us, model.UpdateNode(21, 0, []string{"VIP"}, nil, nil, nil))
	us = append(us, model.DeleteRel(22, 5, 5, 6))
	return us
}

func TestHybridEndToEnd(t *testing.T) {
	db := openDB(t, Options{})
	if err := db.ApplyBatch(socialUpdates()); err != nil {
		t.Fatal(err)
	}
	if err := db.WaitSync(); err != nil {
		t.Fatal(err)
	}
	// Point query via LineageStore.
	ns, err := db.GetNode(0, 15, 15)
	if err != nil || len(ns) != 1 {
		t.Fatalf("GetNode: %v %v", ns, err)
	}
	if ns[0].HasLabel("VIP") {
		t.Error("VIP label must not be visible at ts 15")
	}
	ns, _ = db.GetNode(0, 21, 21)
	if len(ns) != 1 || !ns[0].HasLabel("VIP") {
		t.Error("VIP label must be visible at ts 21")
	}
	// Rels and their deletion.
	rels, _ := db.GetRelationships(5, model.Outgoing, 21, 21)
	if len(rels) != 1 {
		t.Errorf("node 5 out-rels at 21: %d", len(rels))
	}
	rels, _ = db.GetRelationships(5, model.Outgoing, 22, 22)
	if len(rels) != 0 {
		t.Errorf("node 5 out-rels at 22: %d", len(rels))
	}
	// Both stores must have recorded the decisions.
	lineage, _ := db.PlannerDecisions()
	if lineage == 0 {
		t.Error("lineage store should have served point queries")
	}
}

func TestGlobalQueries(t *testing.T) {
	db := openDB(t, Options{SnapshotEveryOps: 8})
	if err := db.ApplyBatch(socialUpdates()); err != nil {
		t.Fatal(err)
	}
	g, err := db.GraphAt(20)
	if err != nil {
		t.Fatal(err)
	}
	if g.NodeCount() != 10 || g.RelCount() != 10 {
		t.Errorf("graph at 20: %d/%d", g.NodeCount(), g.RelCount())
	}
	g, _ = db.GraphAt(22)
	if g.RelCount() != 9 {
		t.Errorf("graph at 22 rels = %d", g.RelCount())
	}
	series, err := db.GetGraph(5, 20, 5)
	if err != nil || len(series) != 4 {
		t.Fatalf("series: %d %v", len(series), err)
	}
	diff, _ := db.GetDiff(11, 21)
	if len(diff) != 10 {
		t.Errorf("diff [11,21) = %d", len(diff))
	}
	all, err := db.GetDiff(1, 23)
	if err != nil {
		t.Fatal(err)
	}
	if hops := algo.Hops(all); len(hops) != 1 || hops[0] != (algo.PathHop{Rel: 5, From: 5, To: 6, Departure: 16, Arrival: 22}) {
		t.Errorf("hops = %+v, want relationship 5 over [16, 22)", hops)
	}
	win, err := db.GetWindow(15, 23)
	if err != nil {
		t.Fatal(err)
	}
	if win.NodeCount() != 10 {
		t.Errorf("window nodes = %d", win.NodeCount())
	}
}

func TestPlannerHeuristic(t *testing.T) {
	db := openDB(t, Options{})
	if err := db.ApplyBatch(socialUpdates()); err != nil {
		t.Fatal(err)
	}
	db.WaitSync()
	// Ring of 10 nodes, avg degree 1: 1 hop touches ~2/10 < 30% ->
	// lineage; 8 hops touch ~9/10 -> timestore.
	if c := db.PlanExpand(1, model.Outgoing); c != ChoseLineage {
		t.Errorf("1-hop plan = %v", c)
	}
	if c := db.PlanExpand(8, model.Outgoing); c != ChoseTimeStore {
		t.Errorf("8-hop plan = %v", c)
	}
	// Both paths return the same frontier.
	viaLS, err := db.LineageStore().Expand(0, model.Outgoing, 3, 20)
	if err != nil {
		t.Fatal(err)
	}
	viaTS, err := db.ExpandViaTimeStore(0, model.Outgoing, 3, 20)
	if err != nil {
		t.Fatal(err)
	}
	for hop := 0; hop < 3; hop++ {
		if len(viaLS[hop]) != len(viaTS[hop]) {
			t.Errorf("hop %d: lineage %d vs timestore %d nodes",
				hop, len(viaLS[hop]), len(viaTS[hop]))
		}
	}
}

func TestExpandPicksStoreAndAgrees(t *testing.T) {
	db := openDB(t, Options{})
	db.ApplyBatch(socialUpdates())
	db.WaitSync()
	res, err := db.Expand(0, model.Both, 2, 20)
	if err != nil {
		t.Fatal(err)
	}
	// Ring: hop 1 = {1, 9}, hop 2 = {2, 8, 0}.
	if len(res[0]) != 2 {
		t.Errorf("hop 1 = %d nodes", len(res[0]))
	}
}

func TestSyncModes(t *testing.T) {
	for _, mode := range []SyncMode{SyncBoth, SyncTimeStoreOnly, SyncLineageOnly} {
		t.Run(mode.String(), func(t *testing.T) {
			db := openDB(t, Options{Mode: mode})
			if err := db.ApplyBatch(socialUpdates()); err != nil {
				t.Fatal(err)
			}
			if mode != SyncTimeStoreOnly {
				ns, err := db.LineageStore().GetNode(0, 21, 21)
				if err != nil || len(ns) != 1 {
					t.Errorf("lineage query: %v %v", ns, err)
				}
			}
			if mode != SyncLineageOnly {
				g, err := db.GraphAt(22)
				if err != nil || g.NodeCount() != 10 {
					t.Errorf("timestore query: %v", err)
				}
			} else {
				if _, err := db.GraphAt(22); err != ErrNoStore {
					t.Errorf("lineage-only global query must fail with ErrNoStore, got %v", err)
				}
			}
		})
	}
}

// TestLineageOnlyGlobalQueriesFail covers the ErrNoStore paths.
func TestLineageOnlyGlobalQueriesFail(t *testing.T) {
	db := openDB(t, Options{Mode: SyncLineageOnly})
	db.Apply(model.AddNode(1, 0, nil, nil))
	if _, err := db.GetDiff(0, 10); err != ErrNoStore {
		t.Errorf("GetDiff: %v", err)
	}
	if _, err := db.GetGraph(0, 10, 1); err != ErrNoStore {
		t.Errorf("GetGraph: %v", err)
	}
	if _, err := db.GetWindow(0, 10); err != ErrNoStore {
		t.Errorf("GetWindow: %v", err)
	}
	if err := db.ScanGraphs(0, 10, 1, nil); err != ErrNoStore {
		t.Errorf("ScanGraphs: %v", err)
	}
	if _, err := db.ExpandViaTimeStore(0, model.Outgoing, 1, 1); err != ErrNoStore {
		t.Errorf("ExpandViaTimeStore: %v", err)
	}
}

func TestStatsTracking(t *testing.T) {
	db := openDB(t, Options{})
	db.ApplyBatch(socialUpdates())
	st := db.Stats()
	if st.Nodes() != 10 {
		t.Errorf("nodes = %d", st.Nodes())
	}
	if st.Rels() != 9 { // 10 created, 1 deleted
		t.Errorf("rels = %d", st.Rels())
	}
	if st.AvgDegree() != 0.9 {
		t.Errorf("average degree = %v, want 9 relationships over 10 nodes", st.AvgDegree())
	}
	// A label edit moves neither counter; deleting a node's relationships and
	// then the node moves both.
	err := db.ApplyBatch([]model.Update{
		model.UpdateNode(23, 1, []string{"VIP"}, []string{"Person"}, nil, nil),
		model.DeleteRel(24, 9, 9, 0),
		model.DeleteRel(24, 8, 8, 9),
		model.DeleteNode(25, 9),
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Nodes() != 9 || st.Rels() != 7 || st.AvgDegree() != 7.0/9 {
		t.Errorf("after a node and its two relationships were deleted: %d nodes, %d rels, average degree %v; want 9, 7, 7/9",
			st.Nodes(), st.Rels(), st.AvgDegree())
	}
	if empty := openDB(t, Options{}); empty.Stats().AvgDegree() != 0 || empty.Stats().EstimateExpandFraction(3, model.Both) != 0 {
		t.Error("an empty store must estimate no degree and no reach")
	}
}

func TestBitemporalFilter(t *testing.T) {
	mk := func(start, end int64) *model.Node {
		return &model.Node{Props: model.Properties{
			model.AppStartKey: model.IntValue(start),
			model.AppEndKey:   model.IntValue(end),
		}}
	}
	nodes := []*model.Node{
		mk(5, 10),
		mk(1, 3),
		mk(8, 20),
		{Props: model.Properties{}}, // no app time: falls back to system time
	}
	got := FilterBitemporal(nodes, 4, 12)
	if len(got) != 2 { // [5,10] contained; no-app-time kept
		t.Fatalf("filtered = %d, want 2", len(got))
	}
}

func TestDiskBytesReported(t *testing.T) {
	db := openDB(t, Options{SnapshotEveryOps: 5})
	db.ApplyBatch(socialUpdates())
	db.WaitSync()
	tsBytes, lsBytes := db.DiskBytes()
	if tsBytes == 0 || lsBytes == 0 {
		t.Errorf("disk bytes: ts %d ls %d", tsBytes, lsBytes)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.ApplyBatch(socialUpdates()); err != nil {
		t.Fatal(err)
	}
	if err := db.WaitSync(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.LatestTimestamp() != 22 {
		t.Errorf("reopened latest ts = %d", db2.LatestTimestamp())
	}
	g, err := db2.GraphAt(22)
	if err != nil || g.NodeCount() != 10 || g.RelCount() != 9 {
		t.Errorf("reopened graph: %v", err)
	}
	ns, err := db2.GetNode(0, 21, 21)
	if err != nil || len(ns) != 1 || !ns[0].HasLabel("VIP") {
		t.Errorf("reopened point query: %v %v", ns, err)
	}
}

// openFDs counts the process's open descriptors (skipping the test where
// there is no table to count).
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no descriptor table to count: %v", err)
	}
	return len(ents)
}

// TestCloseReleasesDescriptors opens, ingests into and closes a store fifty
// times and checks that the process holds no more descriptors than when it
// started: Close must release every store's files, the LineageStore's four
// page-cache files included.
func TestCloseReleasesDescriptors(t *testing.T) {
	start := openFDs(t)
	for i := 0; i < 50; i++ {
		db, err := Open(Options{Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.ApplyBatch(socialUpdates()); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
	if got := openFDs(t); got > start {
		t.Errorf("%d descriptors open after 50 Open/Close rounds, %d before", got, start)
	}
}

// TestRejectedBatchLeavesStatsAlone: a batch the TimeStore rejects for its
// timestamps reaches no store, so it must not move the planner's counters
// either. The store that saw the rejected batch and one that never did stay
// equal, before and after an accepted deletion.
func TestRejectedBatchLeavesStatsAlone(t *testing.T) {
	seen, never := openDB(t, Options{}), openDB(t, Options{})
	same := func(when string) {
		t.Helper()
		a, b := seen.Stats(), never.Stats()
		if a.Nodes() != b.Nodes() || a.Rels() != b.Rels() {
			t.Errorf("%s: %d nodes and %d rels counted, a store that never saw the rejected batch has %d and %d",
				when, a.Nodes(), a.Rels(), b.Nodes(), b.Rels())
		}
	}
	for _, db := range []*DB{seen, never} {
		if err := db.ApplyBatch(socialUpdates()); err != nil {
			t.Fatal(err)
		}
	}
	stale := []model.Update{
		model.DeleteRel(5, 8, 8, 9),
		model.DeleteNode(5, 9),
		model.AddNode(5, 50, []string{"Ghost"}, nil),
		model.UpdateNode(5, 0, []string{"Ghost"}, []string{"Person"}, nil, nil),
	}
	if err := seen.ApplyBatch(stale); !errors.Is(err, model.ErrNonMonotonic) {
		t.Fatalf("a batch at ts 5 after ts 22: %v, want it rejected as non-monotonic", err)
	}
	if err := seen.Err(); err != nil {
		t.Fatalf("the rejection stuck: %v", err)
	}
	same("after the rejection")
	for _, db := range []*DB{seen, never} {
		err := db.ApplyBatch([]model.Update{model.DeleteRel(23, 8, 8, 9), model.DeleteRel(23, 9, 9, 0), model.DeleteNode(24, 9)})
		if err != nil {
			t.Fatal(err)
		}
	}
	same("after an accepted deletion of the node")
	if st := seen.Stats(); st.Nodes() != 9 || st.Rels() != 7 {
		t.Errorf("%d nodes and %d rels after one of ten nodes and two of nine rels were deleted", st.Nodes(), st.Rels())
	}
}
