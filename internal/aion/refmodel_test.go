package aion

import (
	"math/rand"
	"slices"
	"testing"

	"aion/internal/model"
	"aion/internal/refmodel"
)

var directions = []model.Direction{model.Outgoing, model.Incoming, model.Both}

// readsMatch compares GetNode, GetRelationships in all three directions and
// GetRelationship over [start, end) — at start when start == end — for the
// given entities with the reference model's answers.
func readsMatch(t *testing.T, db *DB, m *refmodel.Model, nodes []model.NodeID, rels []model.RelID, start, end model.Timestamp) {
	t.Helper()
	for _, id := range nodes {
		got, err := db.GetNode(id, start, end)
		if want := m.GetNode(id, start, end); err != nil || !refmodel.SameNodes(got, want) {
			t.Fatalf("GetNode(%d, %d, %d) = %s (%v), the model says %s", id, start, end, refmodel.ShowNodes(got), err, refmodel.ShowNodes(want))
		}
		for _, d := range directions {
			got, err := db.GetRelationships(id, d, start, end)
			if want := m.GetRelationships(id, d, start, end); err != nil || !slices.EqualFunc(got, want, refmodel.SameRels) {
				t.Fatalf("GetRelationships(%d, %v, %d, %d) = %s (%v), the model says %s", id, d, start, end,
					refmodel.ShowRels(slices.Concat(got...)), err, refmodel.ShowRels(slices.Concat(want...)))
			}
		}
	}
	for _, id := range rels {
		got, err := db.GetRelationship(id, start, end)
		if want := m.GetRelationship(id, start, end); err != nil || !refmodel.SameRels(got, want) {
			t.Fatalf("GetRelationship(%d, %d, %d) = %s (%v), the model says %s", id, start, end, refmodel.ShowRels(got), err, refmodel.ShowRels(want))
		}
	}
}

// TestEntityReadsMatchTheReferenceModel: the LineageStore is the one store
// that answers GetNode, GetRelationship and GetRelationships, under
// internal/refmodel's interval contract — also right after the commit a read
// follows, before the hybrid cascade has caught up, where the read waits for
// it. A graph the TimeStore materialises knows neither when the version it
// holds began nor when it ends, so a TimeStore-only store answers none of
// these reads.
func TestEntityReadsMatchTheReferenceModel(t *testing.T) {
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
		for _, mode := range []SyncMode{SyncHybrid, SyncBoth, SyncTimeStoreOnly} {
			db := openDB(t, Options{Mode: mode})
			for _, u := range us {
				if err := db.Apply(u); err != nil {
					t.Fatal(err)
				}
			}
			for _, w := range windows {
				ns, err := db.GetNode(0, w.start, w.end)
				if mode == SyncTimeStoreOnly {
					if err != ErrNoStore {
						t.Errorf("%v: GetNode(0, %d, %d) = %s, %v; want ErrNoStore", mode, w.start, w.end, refmodel.ShowNodes(ns), err)
					}
					continue
				}
				if err != nil || len(ns) != 1 || ns[0].Valid != w.want || ns[0].Props["v"].Int() != int64(w.want.Start) {
					t.Errorf("%v: GetNode(0, %d, %d) = %s, %v; want the version %v", mode, w.start, w.end, refmodel.ShowNodes(ns), err, w.want)
				}
			}
			if mode == SyncTimeStoreOnly {
				if _, err := db.GetRelationship(0, 40, 50); err != ErrNoStore {
					t.Errorf("%v: GetRelationship: %v, want ErrNoStore", mode, err)
				}
				if _, err := db.GetRelationships(0, model.Both, 40, 50); err != ErrNoStore {
					t.Errorf("%v: GetRelationships: %v, want ErrNoStore", mode, err)
				}
			}
		}
	})
	for _, mode := range []SyncMode{SyncHybrid, SyncBoth} {
		t.Run(mode.String(), func(t *testing.T) {
			db := openDB(t, Options{Mode: mode, SnapshotEveryOps: 64})
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
}
