package memgraph

import (
	"slices"
	"testing"

	"aion/internal/model"
)

// evolving: node 0, 1, 2 at ts 1..3; rel 0 (0->1) at 4; node 1 property
// update at 5; rel 0 deleted at 6; rel 1 (0->2) at 7; node 2 deleted at 9
// after its rel removed at 8, and created again with another label at 10.
var evolving = []model.Update{
	model.AddNode(1, 0, []string{"A"}, nil),
	model.AddNode(2, 1, nil, model.Properties{"v": model.IntValue(1)}),
	model.AddNode(3, 2, nil, nil),
	model.AddRel(4, 0, 0, 1, "R", nil),
	model.UpdateNode(5, 1, nil, nil, model.Properties{"v": model.IntValue(2)}, nil),
	model.DeleteRel(6, 0, 0, 1),
	model.AddRel(7, 1, 0, 2, "R", nil),
	model.DeleteRel(8, 1, 0, 2),
	model.DeleteNode(9, 2),
	model.AddNode(10, 2, []string{"B"}, nil),
}

// windowOf is the window [start, end) of us the way GetWindow builds it: the
// graph at start, then every later update before end united into it.
func windowOf(t *testing.T, us []model.Update, start, end model.Timestamp) *Graph {
	t.Helper()
	g := New()
	for _, u := range us {
		var err error
		switch {
		case u.TS <= start:
			err = g.Apply(u)
		case u.TS < end:
			err = g.Unite(u)
		}
		if err != nil {
			t.Fatalf("window [%d, %d): %v: %v", start, end, u, err)
		}
	}
	return g
}

// A window holds each node in its last version before the window's end; a
// node deleted inside it stays, and one created again is its new version with
// the relationships the window kept.
func TestNodeAtVersions(t *testing.T) {
	if windowOf(t, evolving, 0, 2).Node(1) != nil {
		t.Error("node 1 is created at the window's end")
	}
	if n := windowOf(t, evolving, 2, 5).Node(1); n == nil || n.Props["v"].Int() != 1 {
		t.Errorf("window [2, 5): node 1 = %v, want v=1", n)
	}
	if n := windowOf(t, evolving, 2, 6).Node(1); n == nil || n.Props["v"].Int() != 2 {
		t.Errorf("window [2, 6): node 1 = %v, want v=2", n)
	}
	if windowOf(t, evolving, 9, 10).Node(2) != nil {
		t.Error("node 2 was deleted at the window's start")
	}
	if windowOf(t, evolving, 8, 10).Node(2) == nil {
		t.Error("node 2 is deleted inside the window and must stay")
	}
	w := windowOf(t, evolving, 7, 11)
	if n := w.Node(2); w.NodeCount() != 3 || n == nil || !slices.Equal(n.Labels, []string{"B"}) || !slices.Equal(w.In(2), []model.RelID{1}) {
		t.Errorf("window [7, 11): %d nodes, node 2 = %v with incoming %v; want 3, labels [B], incoming [1]", w.NodeCount(), n, w.In(2))
	}
}

// Relationship 0 lives in [4, 6): a window holds it when the two overlap.
func TestRelAtAndHistory(t *testing.T) {
	for _, w := range []struct {
		start, end model.Timestamp
		held       bool
	}{{1, 4, false}, {1, 5, true}, {5, 10, true}, {5, 6, true}, {6, 10, false}, {4, 4, true}, {6, 6, false}} {
		if held := windowOf(t, evolving, w.start, w.end).Rel(0) != nil; held != w.held {
			t.Errorf("window [%d, %d) holds relationship 0: %v, want %v", w.start, w.end, held, w.held)
		}
	}
}

// Adjacency lists come out in the base's order, then the log's.
func TestRelsAtTimeline(t *testing.T) {
	for _, w := range []struct {
		start, end model.Timestamp
		out, in1   []model.RelID
	}{
		{4, 5, []model.RelID{0}, []model.RelID{0}},
		{6, 7, nil, nil},
		{6, 8, []model.RelID{1}, nil},
		{1, 10, []model.RelID{0, 1}, []model.RelID{0}},
		{8, 10, nil, nil},
	} {
		g := windowOf(t, evolving, w.start, w.end)
		if !slices.Equal(g.Out(0), w.out) || !slices.Equal(g.In(1), w.in1) {
			t.Errorf("window [%d, %d): out of 0 %v, into 1 %v; want %v and %v", w.start, w.end, g.Out(0), g.In(1), w.out, w.in1)
		}
	}
}

// A window one instant wide is the snapshot at that instant.
func TestSnapshotMatchesDirectReplay(t *testing.T) {
	for ts := model.Timestamp(0); ts <= 11; ts++ {
		snap := New()
		for _, u := range evolving {
			if u.TS <= ts {
				mustApply(t, snap, u)
			}
		}
		for _, end := range []model.Timestamp{ts, ts + 1} {
			w := windowOf(t, evolving, ts, end)
			w.SetTimestamp(ts)
			if got, want := w.Export(), snap.Export(); len(got) != len(want) || !slices.EqualFunc(got, want, sameUpdate) {
				t.Errorf("window [%d, %d) = %v, the snapshot at %d is %v", ts, end, got, ts, want)
			}
		}
	}
}

func sameUpdate(a, b model.Update) bool {
	return a.Kind == b.Kind && a.NodeID == b.NodeID && a.RelID == b.RelID && a.Src == b.Src && a.Tgt == b.Tgt &&
		slices.Equal(a.AddLabels, b.AddLabels) && a.SetProps.Equal(b.SetProps)
}

// A self-loop deleted and created again inside a window is listed once each
// way.
func TestSelfLoopNotDoubled(t *testing.T) {
	us := []model.Update{
		model.AddNode(1, 0, nil, nil),
		model.AddRel(2, 0, 0, 0, "SELF", nil),
		model.DeleteRel(3, 0, 0, 0),
		model.AddRel(4, 0, 0, 0, "SELF", nil),
	}
	for _, start := range []model.Timestamp{1, 2} {
		if g := windowOf(t, us, start, 5); g.RelCount() != 1 || len(g.Out(0)) != 1 || len(g.In(0)) != 1 {
			t.Errorf("window [%d, 5): %d relationships, out %v, in %v; want one, once each way", start, g.RelCount(), g.Out(0), g.In(0))
		}
	}
}

// A relationship created again inside a window replaces its held version: it
// leaves its old endpoints' lists and joins its new ones at the end. The base
// the window was cloned from keeps its own lists.
func TestReinsertedRelVisibility(t *testing.T) {
	us := []model.Update{
		model.AddNode(1, 0, nil, nil),
		model.AddNode(1, 1, nil, nil),
		model.AddRel(2, 0, 0, 1, "R", nil),
		model.AddRel(2, 1, 0, 1, "R", nil),
		model.DeleteRel(4, 0, 0, 1),
		model.AddRel(5, 2, 0, 1, "R", nil),
		model.AddRel(6, 0, 1, 0, "R", model.Properties{"k": model.IntValue(6)}),
		model.DeleteRel(7, 1, 0, 1),
		model.AddRel(8, 1, 0, 1, "R", nil),
	}
	base := windowOf(t, us, 3, 3)
	w := base.Clone()
	for _, u := range us[4:] {
		if err := w.Unite(u); err != nil {
			t.Fatal(err)
		}
	}
	if r := w.Rel(0); w.RelCount() != 3 || r == nil || r.Src != 1 || r.Props["k"].Int() != 6 {
		t.Errorf("%d relationships, relationship 0 = %v; want 3, the version 1->0 created at 6", w.RelCount(), r)
	}
	for _, l := range []struct {
		name      string
		got, want []model.RelID
	}{
		{"out of 0", w.Out(0), []model.RelID{2, 1}},
		{"into 1", w.In(1), []model.RelID{2, 1}},
		{"out of 1", w.Out(1), []model.RelID{0}},
		{"into 0", w.In(0), []model.RelID{0}},
		{"the base's out of 0", base.Out(0), []model.RelID{0, 1}},
		{"the base's into 0", base.In(0), nil},
	} {
		if !slices.Equal(l.got, l.want) {
			t.Errorf("%s: %v, want %v", l.name, l.got, l.want)
		}
	}
	for ts, want := range map[model.Timestamp]int{1: 0, 2: 1, 3: 1, 4: 0, 5: 0, 6: 1} {
		if got := windowOf(t, us, ts, ts+1).Rel(0) != nil; got != (want == 1) {
			t.Errorf("window [%d, %d) holds relationship 0: %v", ts, ts+1, got)
		}
	}
}
