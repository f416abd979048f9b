package aion

import (
	"math/rand"
	"slices"
	"testing"

	"aion/internal/model"
	"aion/internal/refmodel"
)

// evolvedDB builds a store with creations, property updates, deletions and
// re-insertions so both stores carry non-trivial histories.
func evolvedDB(t *testing.T, mode SyncMode) *DB {
	t.Helper()
	db := openDB(t, Options{Mode: mode, SnapshotEveryOps: 9})
	rng := rand.New(rand.NewSource(3))
	ts := model.Timestamp(0)
	var us []model.Update
	for i := 0; i < 12; i++ {
		ts++
		us = append(us, model.AddNode(ts, model.NodeID(i), []string{"N"},
			model.Properties{"v": model.IntValue(int64(i))}))
	}
	live := map[model.RelID][2]model.NodeID{}
	next := model.RelID(0)
	for step := 0; step < 80; step++ {
		ts++
		switch rng.Intn(5) {
		case 0, 1, 2:
			s, x := model.NodeID(rng.Intn(12)), model.NodeID(rng.Intn(12))
			us = append(us, model.AddRel(ts, next, s, x, "R",
				model.Properties{"w": model.FloatValue(float64(step))}))
			live[next] = [2]model.NodeID{s, x}
			next++
		case 3:
			for rid, ends := range live {
				us = append(us, model.DeleteRel(ts, rid, ends[0], ends[1]))
				delete(live, rid)
				break
			}
		case 4:
			id := model.NodeID(rng.Intn(12))
			us = append(us, model.UpdateNode(ts, id, nil, nil,
				model.Properties{"step": model.IntValue(int64(step))}, nil))
		}
	}
	if err := db.ApplyBatch(us); err != nil {
		t.Fatal(err)
	}
	if err := db.WaitSync(); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestFallbackPathsAgreeWithLineage requires the LineageStore's point reads
// to agree with the graph the TimeStore materialises at the same timestamp:
// the same nodes, labels, properties and degrees in both directions (Sec 5.1:
// the two stores are two views of one history).
func TestFallbackPathsAgreeWithLineage(t *testing.T) {
	db := evolvedDB(t, SyncBoth)
	maxTS := db.LatestTimestamp()
	for probe := model.Timestamp(1); probe <= maxTS; probe += 7 {
		g, err := db.GraphAt(probe)
		if err != nil {
			t.Fatal(err)
		}
		for id := model.NodeID(0); id < 12; id++ {
			viaLS, err := db.LineageStore().GetNode(id, probe, probe)
			if err != nil {
				t.Fatal(err)
			}
			viaTS := g.Node(id)
			if (len(viaLS) == 1) != (viaTS != nil) || len(viaLS) > 1 {
				t.Fatalf("ts %d node %d: lineage %s vs timestore %v", probe, id, refmodel.ShowNodes(viaLS), viaTS)
			}
			if viaTS != nil && (!slices.Equal(viaLS[0].Labels, viaTS.Labels) || !viaLS[0].Props.Equal(viaTS.Props)) {
				t.Fatalf("ts %d node %d: lineage %v %v vs timestore %v %v",
					probe, id, viaLS[0].Labels, viaLS[0].Props, viaTS.Labels, viaTS.Props)
			}
			for _, d := range []struct {
				dir  model.Direction
				want []model.RelID
			}{{model.Outgoing, g.Out(id)}, {model.Incoming, g.In(id)}} {
				rels, err := db.LineageStore().GetRelationships(id, d.dir, probe, probe)
				if err != nil {
					t.Fatal(err)
				}
				if len(rels) != len(d.want) {
					t.Fatalf("ts %d node %d %v: lineage degree %d vs timestore %d",
						probe, id, d.dir, len(rels), len(d.want))
				}
			}
		}
	}
}

// TestHistoryFallbackAgrees requires the LineageStore's entity histories over
// the whole timeline to be the ones the TimeStore's log implies: every
// version, with its interval, of every node and every relationship that ever
// existed.
func TestHistoryFallbackAgrees(t *testing.T) {
	db := evolvedDB(t, SyncBoth)
	maxTS := db.LatestTimestamp()
	diff, err := db.GetDiff(0, model.TSInfinity)
	if err != nil {
		t.Fatal(err)
	}
	var m refmodel.Model
	m.Apply(diff...)
	for id := model.NodeID(0); id < 12; id++ {
		viaLS, err := db.LineageStore().GetNode(id, 1, maxTS)
		if err != nil {
			t.Fatal(err)
		}
		if want := m.GetNode(id, 1, maxTS); !refmodel.SameNodes(viaLS, want) {
			t.Fatalf("node %d history: lineage %s vs timestore log %s",
				id, refmodel.ShowNodes(viaLS), refmodel.ShowNodes(want))
		}
	}
	seen := map[model.RelID]bool{}
	for _, u := range diff {
		if u.Kind != model.OpAddRel || seen[u.RelID] {
			continue
		}
		seen[u.RelID] = true
		viaLS, err := db.LineageStore().GetRelationship(u.RelID, 1, maxTS)
		if err != nil {
			t.Fatal(err)
		}
		if want := m.GetRelationship(u.RelID, 1, maxTS); !refmodel.SameRels(viaLS, want) {
			t.Fatalf("rel %d history: lineage %s vs timestore log %s",
				u.RelID, refmodel.ShowRels(viaLS), refmodel.ShowRels(want))
		}
	}
	if len(seen) == 0 {
		t.Fatal("the history created no relationships")
	}
}
