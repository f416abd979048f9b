package memgraph

import (
	"testing"

	"aion/internal/model"
)

// evolvingTGraph builds: node 0,1,2 at ts 1..3; rel 0 (0->1) at 4; node 1
// property update at 5; rel 0 deleted at 6; rel 1 (0->2) at 7; node 2
// deleted at 9 after its rel removed at 8.
func evolvingTGraph(t *testing.T) *TGraph {
	t.Helper()
	tg := NewTGraph(model.Interval{Start: 0, End: model.TSInfinity})
	us := []model.Update{
		model.AddNode(1, 0, []string{"A"}, nil),
		model.AddNode(2, 1, nil, model.Properties{"v": model.IntValue(1)}),
		model.AddNode(3, 2, nil, nil),
		model.AddRel(4, 0, 0, 1, "R", nil),
		model.UpdateNode(5, 1, nil, nil, model.Properties{"v": model.IntValue(2)}, nil),
		model.DeleteRel(6, 0, 0, 1),
		model.AddRel(7, 1, 0, 2, "R", nil),
		model.DeleteRel(8, 1, 0, 2),
		model.DeleteNode(9, 2),
	}
	for _, u := range us {
		if err := tg.Apply(u); err != nil {
			t.Fatalf("apply %v: %v", u, err)
		}
	}
	return tg
}

// versionsOf lists every version of node (rel false) or relationship id.
func versionsOf(tg *TGraph, id int64, rel bool) []model.Interval {
	var out []model.Interval
	if rel {
		tg.ForEachRelVersion(func(r *model.Rel) bool {
			if int64(r.ID) == id {
				out = append(out, r.Valid)
			}
			return true
		})
		return out
	}
	tg.ForEachNodeVersion(func(n *model.Node) bool {
		if int64(n.ID) == id {
			out = append(out, n.Valid)
		}
		return true
	})
	return out
}

func TestNodeAtVersions(t *testing.T) {
	tg := evolvingTGraph(t)
	if tg.Snapshot(2).Node(1) == nil {
		t.Fatal("node 1 must exist at ts 2..")
	}
	if tg.Snapshot(1).Node(1) != nil {
		t.Error("node 1 must not exist before creation")
	}
	v1 := tg.Snapshot(3).Node(1)
	if v1.Props["v"].Int() != 1 {
		t.Errorf("version at ts 3 has v=%v", v1.Props["v"])
	}
	v2 := tg.Snapshot(5).Node(1)
	if v2.Props["v"].Int() != 2 {
		t.Errorf("version at ts 5 has v=%v", v2.Props["v"])
	}
	if tg.Snapshot(9).Node(2) != nil {
		t.Error("deleted node visible")
	}
	if tg.Snapshot(8).Node(2) == nil {
		t.Error("node 2 must be visible just before deletion")
	}
}

func TestRelAtAndHistory(t *testing.T) {
	tg := evolvingTGraph(t)
	if tg.Snapshot(4).Rel(0) == nil || tg.Snapshot(5).Rel(0) == nil {
		t.Error("rel 0 live in [4,6)")
	}
	if tg.Snapshot(6).Rel(0) != nil {
		t.Error("rel 0 deleted at 6")
	}
	if tg.Snapshot(3).Rel(0) != nil {
		t.Error("rel 0 not yet created at 3")
	}
	if h := versionsOf(tg, 0, true); len(h) != 1 || h[0] != (model.Interval{Start: 4, End: 6}) {
		t.Errorf("rel history = %+v", h)
	}
	if h := versionsOf(tg, 1, false); len(h) != 2 || h[0] != (model.Interval{Start: 2, End: 5}) || h[1] != (model.Interval{Start: 5, End: model.TSInfinity}) {
		t.Errorf("node 1 versions = %+v, want [2,5) and [5,inf)", h)
	}
}

func TestRelsAtTimeline(t *testing.T) {
	tg := evolvingTGraph(t)
	if rels := tg.Snapshot(4).Out(0); len(rels) != 1 || rels[0] != 0 {
		t.Errorf("ts 4: %v", rels)
	}
	if rels := tg.Snapshot(6).Out(0); len(rels) != 0 {
		t.Errorf("ts 6 (rel 0 deleted, rel 1 not yet): %v", rels)
	}
	if rels := tg.Snapshot(7).Out(0); len(rels) != 1 || rels[0] != 1 {
		t.Errorf("ts 7: %v", rels)
	}
	if rels := tg.Snapshot(4).In(1); len(rels) != 1 {
		t.Errorf("incoming at 4: %v", rels)
	}
	if rels := tg.Snapshot(8).In(1); len(rels) != 0 {
		t.Errorf("incoming at 8: %v", rels)
	}
}

func TestSnapshotMatchesDirectReplay(t *testing.T) {
	tg := evolvingTGraph(t)
	for ts := model.Timestamp(0); ts <= 10; ts++ {
		snap := tg.Snapshot(ts)
		// Direct replay: count entities live at ts.
		wantNodes, wantRels := 0, 0
		tg.ForEachNodeVersion(func(n *model.Node) bool {
			if n.Valid.Contains(ts) {
				wantNodes++
			}
			return true
		})
		tg.ForEachRelVersion(func(r *model.Rel) bool {
			if r.Valid.Contains(ts) {
				wantRels++
			}
			return true
		})
		if snap.NodeCount() != wantNodes || snap.RelCount() != wantRels {
			t.Errorf("ts %d: snapshot %d/%d, want %d/%d",
				ts, snap.NodeCount(), snap.RelCount(), wantNodes, wantRels)
		}
		if snap.Timestamp() != ts {
			t.Errorf("snapshot ts = %d", snap.Timestamp())
		}
	}
}

func TestVersionCounts(t *testing.T) {
	tg := evolvingTGraph(t)
	n, r := tg.VersionCounts()
	if n != 4 { // 0:1 version, 1:2 versions, 2:1 version
		t.Errorf("node versions = %d, want 4", n)
	}
	if r != 2 {
		t.Errorf("rel versions = %d, want 2", r)
	}
}

func TestTGraphConstraints(t *testing.T) {
	tg := NewTGraph(model.Interval{Start: 0, End: model.TSInfinity})
	tg.Apply(model.AddNode(1, 0, nil, nil))
	if err := tg.Apply(model.AddNode(2, 0, nil, nil)); err == nil {
		t.Error("double add must fail")
	}
	if err := tg.Apply(model.DeleteNode(2, 5)); err == nil {
		t.Error("delete missing must fail")
	}
	tg.Apply(model.DeleteNode(3, 0))
	if err := tg.Apply(model.DeleteNode(4, 0)); err == nil {
		t.Error("double delete must fail")
	}
	// Re-insertion after deletion creates a second version chain entry
	// with a disjoint interval (Sec 3).
	if err := tg.Apply(model.AddNode(5, 0, nil, nil)); err != nil {
		t.Errorf("re-insert after delete: %v", err)
	}
	if h := versionsOf(tg, 0, false); len(h) != 2 || h[0].Overlaps(h[1]) {
		t.Errorf("re-inserted history: %+v", h)
	}
}

func TestTGraphReinsertedRelVisibility(t *testing.T) {
	tg := NewTGraph(model.Interval{Start: 0, End: model.TSInfinity})
	tg.Apply(model.AddNode(1, 0, nil, nil))
	tg.Apply(model.AddNode(1, 1, nil, nil))
	tg.Apply(model.AddRel(2, 0, 0, 1, "R", nil))
	tg.Apply(model.DeleteRel(4, 0, 0, 1))
	tg.Apply(model.AddRel(6, 0, 0, 1, "R", nil))
	for ts, want := range map[model.Timestamp]int{1: 0, 2: 1, 3: 1, 4: 0, 5: 0, 6: 1, 7: 1} {
		if rels := tg.Snapshot(ts).Out(0); len(rels) != want {
			t.Errorf("ts %d: %d rels, want %d", ts, len(rels), want)
		}
	}
}

func TestSelfLoopNotDoubled(t *testing.T) {
	tg := NewTGraph(model.Interval{Start: 0, End: model.TSInfinity})
	tg.Apply(model.AddNode(1, 0, nil, nil))
	tg.Apply(model.AddRel(2, 0, 0, 0, "SELF", nil))
	if g := tg.Snapshot(2); g.RelCount() != 1 || len(g.Out(0)) != 1 || len(g.In(0)) != 1 {
		t.Errorf("self loop: %d relationships, out %v, in %v; want one, once each way", g.RelCount(), g.Out(0), g.In(0))
	}
	if _, r := tg.VersionCounts(); r != 1 {
		t.Errorf("self loop has %d versions", r)
	}
}
