package aion

import (
	"cmp"
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"aion/internal/enc"
	"aion/internal/model"
	"aion/internal/strstore"
	"aion/internal/testkit/refmodel"
)

var directions = []model.Direction{model.Outgoing, model.Incoming, model.Both}

// readsMatch compares GetNode, GetRelationships in all three directions and
// GetRelationship over [start, end) — at start when start == end — for the
// given entities with the reference model's answers.
func readsMatch(t *testing.T, db *DB, m *refmodel.Model, nodes []model.NodeID, rels []model.RelID, start, end model.Timestamp) {
	ctx := context.Background()
	t.Helper()
	for _, id := range nodes {
		got, err := db.GetNodeContext(ctx, id, start, end)
		if want := m.GetNode(id, start, end); err != nil || !refmodel.SameNodes(got, want) {
			t.Fatalf("GetNode(%d, %d, %d) = %s (%v), the model says %s", id, start, end, refmodel.ShowNodes(got), err, refmodel.ShowNodes(want))
		}
		for _, d := range directions {
			got, err := db.GetRelationshipsContext(ctx, id, d, start, end)
			if want := m.GetRelationships(id, d, start, end); err != nil || !slices.EqualFunc(got, want, refmodel.SameRels) {
				t.Fatalf("GetRelationships(%d, %v, %d, %d) = %s (%v), the model says %s", id, d, start, end,
					refmodel.ShowRels(slices.Concat(got...)), err, refmodel.ShowRels(slices.Concat(want...)))
			}
		}
	}
	for _, id := range rels {
		got, err := db.GetRelationshipContext(ctx, id, start, end)
		if want := m.GetRelationship(id, start, end); err != nil || !refmodel.SameRels(got, want) {
			t.Fatalf("GetRelationship(%d, %d, %d) = %s (%v), the model says %s", id, start, end, refmodel.ShowRels(got), err, refmodel.ShowRels(want))
		}
	}
}

// TestEntityReadsMatchTheReferenceModel: the LineageStore is the one store
// that answers GetNode, GetRelationship and GetRelationships, under
// internal/testkit/refmodel's interval contract — also right after the commit a read
// follows, before the hybrid cascade has caught up, where the read waits for
// it. A graph the TimeStore materialises knows neither when the version it
// holds began nor when it ends, so it answers none of these reads.
func TestEntityReadsMatchTheReferenceModel(t *testing.T) {
	ctx := context.Background()
	t.Run("versions at 10, 38 and 47", func(t *testing.T) {
		us := []model.Update{
			model.AddNode(10, 0, []string{"N"}, model.Properties{"v": model.IntValue(10)}),
			model.UpdateNode(38, 0, nil, nil, model.Properties{"v": model.IntValue(38)}, nil),
			model.UpdateNode(47, 0, nil, nil, model.Properties{"v": model.IntValue(47)}, nil),
		}
		windows := []struct {
			start, end model.Timestamp
			want       model.Interval
		}{
			{47, 65, model.Interval{Start: 47, End: model.TSInfinity}},
			{40, 46, model.Interval{Start: 38, End: 47}},
			{40, 40, model.Interval{Start: 38, End: 47}},
			{50, 50, model.Interval{Start: 47, End: model.TSInfinity}},
		}
		db := openDB(t, Options{})
		for _, u := range us {
			if err := db.ApplyBatch([]model.Update{u}); err != nil {
				t.Fatal(err)
			}
		}
		for _, w := range windows {
			ns, err := db.GetNodeContext(ctx, 0, w.start, w.end)
			if err != nil || len(ns) != 1 || ns[0].Valid != w.want || ns[0].Props["v"].Int() != int64(w.want.Start) {
				t.Errorf("GetNode(0, %d, %d) = %s, %v; want the version %v", w.start, w.end, refmodel.ShowNodes(ns), err, w.want)
			}
		}
	})
	t.Run("Hybrid", func(t *testing.T) {
		db := openDB(t, Options{SnapshotEveryOps: 64})
		h, m, windows := refmodel.NewHistory(7), &refmodel.Model{}, rand.New(rand.NewSource(7))
		const commits = 30
		for h.TS < commits {
			us := h.Commit(20)
			if err := db.ApplyBatch(us); err != nil {
				t.Fatal(err)
			}
			m.Apply(us...)
			// What the commit changed, read at once: no WaitSync.
			var nodes []model.NodeID
			var rels []model.RelID
			for _, u := range us {
				if u.Kind.IsNodeOp() {
					nodes = append(nodes, u.NodeID)
				} else {
					nodes, rels = append(nodes, u.Src, u.Tgt), append(rels, u.RelID)
				}
			}
			readsMatch(t, db, m, nodes, rels, h.TS, h.TS)
			readsMatch(t, db, m, nodes, rels, model.Timestamp(windows.Int63n(int64(h.TS)+1)), h.TS+1)
		}
		var nodes []model.NodeID
		for id := model.NodeID(0); id < h.Nodes; id++ {
			nodes = append(nodes, id)
		}
		var rels []model.RelID
		for id := model.RelID(0); id < h.Rels; id++ {
			rels = append(rels, id)
		}
		for at := model.Timestamp(0); at <= h.TS+1; at++ {
			readsMatch(t, db, m, nodes, rels, at, at)
		}
		for i := 0; i < 12; i++ {
			start := model.Timestamp(windows.Int63n(int64(h.TS)))
			readsMatch(t, db, m, nodes, rels, start, start+1+model.Timestamp(windows.Int63n(int64(h.TS-start)+2)))
		}
		if lineage, timeStore := db.PlannerDecisions(); lineage == 0 || timeStore != 0 {
			t.Errorf("%d reads answered by the LineageStore and %d by the TimeStore, want all by the LineageStore", lineage, timeStore)
		}
		t.Logf("%d updates over %d nodes and %d relationships", len(h.Updates), h.Nodes, h.Rels)
	})
}

// countsMatch compares the planner's counters with the live entities of the
// model's graph at ts.
func countsMatch(t *testing.T, db *DB, m *refmodel.Model, ts model.Timestamp, when string) {
	t.Helper()
	var nodes, rels int64
	for _, u := range m.Graph(ts) {
		if u.Kind == model.OpAddNode {
			nodes++
		} else {
			rels++
		}
	}
	if st := db.Stats(); st.Nodes() != nodes || st.Rels() != rels {
		t.Fatalf("%s: the planner counts %d nodes and %d relationships, the model's graph at %d has %d and %d",
			when, st.Nodes(), st.Rels(), ts, nodes, rels)
	}
}

// sameStates reports whether two hops hold the same nodes in the same states
// — ids, labels in order, properties — in any order, intervals aside.
func sameStates(a, b []*model.Node) bool {
	byID := func(x, y *model.Node) int { return cmp.Compare(x.ID, y.ID) }
	a, b = slices.Clone(a), slices.Clone(b)
	slices.SortFunc(a, byID)
	slices.SortFunc(b, byID)
	return slices.EqualFunc(a, b, func(x, y *model.Node) bool {
		return x.ID == y.ID && slices.Equal(x.Labels, y.Labels) && x.Props.Equal(y.Props)
	})
}

// expandMatches compares every route of an expand from id at ts, for hops 1
// to 3, with the model's Alg 1: the LineageStore's with each version's
// interval and in the model's order; the TimeStore's by node state per hop,
// because a materialised graph neither knows when a version began nor keeps
// the neighbour indexes' order; and the planner's like the route it picks.
func expandMatches(t *testing.T, db *DB, m *refmodel.Model, id model.NodeID, d model.Direction, ts model.Timestamp, viaStores bool) {
	ctx := context.Background()
	t.Helper()
	all := m.Expand(id, d, 3, ts)
	check := func(route string, got [][]*model.Node, err error, hops int, same func(a, b []*model.Node) bool) {
		t.Helper()
		want := all[:hops]
		for len(want) > 0 && len(want[len(want)-1]) == 0 { // the result ends at the last hop that reaches a node
			want = want[:len(want)-1]
		}
		if err != nil || !slices.EqualFunc(got, want, same) {
			t.Fatalf("%s(%d, %v, %d, %d) = %s (%v), the model says %s", route, id, d, hops, ts,
				refmodel.ShowNodes(slices.Concat(got...)), err, refmodel.ShowNodes(slices.Concat(want...)))
		}
	}
	for hops := 1; hops <= 3; hops++ {
		got, err := db.ExpandContext(ctx, id, d, hops, ts)
		if db.Stats().EstimateExpandFraction(hops, d) < SelectivityThreshold {
			check("Expand, on the LineageStore,", got, err, hops, refmodel.SameNodes)
		} else {
			check("Expand, on the TimeStore,", got, err, hops, sameStates)
		}
		if !viaStores {
			continue
		}
		got, err = Expand(ctx, db.View(ctx, ts), id, d, hops)
		check("Expand on the View", got, err, hops, refmodel.SameNodes)
		got, err = expandOnSnapshot(ctx, db, id, d, hops, ts)
		check("Expand on the snapshot", got, err, hops, sameStates)
	}
}

// TestExpandMatchesTheReferenceModel: the planner routes an expand by two
// counters the update stream moves — after every commit, after a rejected
// batch and after a reopen they are the model's live node and relationship
// counts — and whichever store it picks, and each store asked directly,
// answers what the model's Alg 1 does at every commit timestamp. The history
// grows from a handful of nodes, so the planner picks each store.
func TestExpandMatchesTheReferenceModel(t *testing.T) {
	t.Run("Hybrid", func(t *testing.T) {
		opts := Options{Dir: t.TempDir(), SnapshotEveryOps: 64}
		db := openDB(t, opts)
		h, m, starts := refmodel.NewHistory(11), &refmodel.Model{}, rand.New(rand.NewSource(11))
		const commits = 30
		for h.TS < commits {
			us := h.Commit(20)
			if err := db.ApplyBatch(us); err != nil {
				t.Fatal(err)
			}
			m.Apply(us...)
			countsMatch(t, db, m, h.TS, "after a commit")
			// Read at once, no WaitSync: a LineageStore route waits for the cascade.
			expandMatches(t, db, m, us[0].NodeID, directions[h.TS%3], h.TS, false)
		}
		stale := []model.Update{model.AddNode(1, h.Nodes, nil, nil), model.DeleteRel(1, 0, 0, 0)}
		if err := db.ApplyBatch(stale); !errors.Is(err, model.ErrNonMonotonic) || db.Err() != nil {
			t.Fatalf("a batch at ts 1 after ts %d: %v (sticky: %v), want it rejected as non-monotonic", h.TS, err, db.Err())
		}
		countsMatch(t, db, m, h.TS, "after a rejected batch")
		if err := db.WaitSync(); err != nil {
			t.Fatal(err)
		}
		for ts := model.Timestamp(1); ts <= h.TS; ts++ {
			for i := 0; i < 3; i++ {
				id := model.NodeID(starts.Int63n(int64(h.Nodes)))
				expandMatches(t, db, m, id, directions[i], ts, true)
			}
		}
		if lineage, timeStore := db.PlannerDecisions(); lineage == 0 || timeStore == 0 {
			t.Errorf("the planner sent %d expands to the LineageStore and %d to the TimeStore, want both routes taken", lineage, timeStore)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		db = openDB(t, opts)
		countsMatch(t, db, m, h.TS, "after a reopen")
		t.Logf("%d updates over %d nodes and %d relationships; %d live nodes, %d live relationships",
			len(h.Updates), h.Nodes, h.Rels, db.Stats().Nodes(), db.Stats().Rels())
	})
}

// digest encodes updates record by record, label and key lists sorted (a
// snapshot stores them so): equal digests are the same updates.
func digest(t *testing.T, codec *enc.Codec, us []model.Update) string {
	t.Helper()
	var b []byte
	for _, u := range us {
		u = refmodel.Normalize(u)
		var err error
		if b, err = codec.AppendUpdate(append(b, '|'), u); err != nil {
			t.Fatal(err)
		}
	}
	return string(b)
}

// TestGlobalDoorsMatchTheReferenceModel: aion.DB's own global reads — GetGraph
// at a point and as a series, GetDiff and GetWindow — answer what the model
// does: right after each commit, while the cascade runs, from the first, a
// random and the newest commit on; and once it has drained, from every commit
// timestamp, over the inverted window, the point and windows of growing
// width up to the whole suffix.
func TestGlobalDoorsMatchTheReferenceModel(t *testing.T) {
	ctx := context.Background()
	db := openDB(t, Options{SnapshotEveryOps: 64})
	codec := enc.NewCodec(strstore.NewMem())
	h, m, starts := refmodel.NewHistory(13), &refmodel.Model{}, rand.New(rand.NewSource(13))
	check := func(a, b model.Timestamp, when string) {
		t.Helper()
		diff, err := db.GetDiffContext(ctx, a, b)
		if err != nil || digest(t, codec, diff) != digest(t, codec, m.Diff(a, b)) {
			t.Fatalf("%s: GetDiff(%d, %d) differs from the model (%v)", when, a, b, err)
		}
		w, err := db.GetWindowContext(ctx, a, b)
		if err != nil || digest(t, codec, w.Export()) != digest(t, codec, m.Window(a, b)) {
			t.Fatalf("%s: GetWindow(%d, %d) differs from the model (%v)", when, a, b, err)
		}
	}
	for h.TS < 30 {
		us := h.Commit(20)
		if err := db.ApplyBatch(us); err != nil {
			t.Fatal(err)
		}
		m.Apply(us...)
		gs, err := db.GetGraphContext(ctx, h.TS, h.TS, 1)
		if err != nil || len(gs) != 1 || digest(t, codec, gs[0].Export()) != digest(t, codec, m.Graph(h.TS)) {
			t.Fatalf("GetGraph(%d, %d, 1) right after the commit differs from the model (%v)", h.TS, h.TS, err)
		}
		for _, a := range []model.Timestamp{0, model.Timestamp(starts.Int63n(int64(h.TS) + 1)), h.TS} {
			check(a, h.TS+1, "right after a commit")
		}
	}
	if err := db.WaitSync(); err != nil {
		t.Fatal(err)
	}
	last := h.TS
	for _, step := range []model.Timestamp{1, 3} {
		series, err := db.GetGraphContext(ctx, 0, last, step)
		if err != nil || len(series) != int(last/step)+1 {
			t.Fatalf("GetGraph(0, %d, %d): %d graphs, %v", last, step, len(series), err)
		}
		for i, g := range series {
			if at := model.Timestamp(i) * step; digest(t, codec, g.Export()) != digest(t, codec, m.Graph(at)) {
				t.Fatalf("GetGraph(0, %d, %d)'s step at %d differs from the model", last, step, at)
			}
		}
	}
	for a := model.Timestamp(0); a <= last+1; a++ {
		for _, b := range []model.Timestamp{a - 1, a, a + 1, a + 3, a + 8, last + 1} {
			check(a, min(b, last+1), "drained")
		}
	}
	t.Logf("%d updates over %d nodes and %d relationships", len(h.Updates), h.Nodes, h.Rels)
}
