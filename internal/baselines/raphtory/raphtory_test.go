package raphtory

import (
	"testing"

	"aion/internal/model"
)

func evolved() *Graph {
	g := New()
	g.IngestAll([]model.Update{
		model.AddNode(1, 0, nil, nil),
		model.AddNode(1, 1, nil, nil),
		model.AddNode(1, 2, nil, nil),
		model.AddRel(2, 0, 0, 1, "R", nil),
		model.AddRel(3, 1, 1, 2, "R", nil),
		model.DeleteRel(5, 0, 0, 1),
		model.AddRel(7, 0, 0, 1, "R", nil), // re-insertion of the same rel id
		model.DeleteNode(9, 2),             // (rel 1 still points there: stream semantics)
	})
	return g
}

func TestPointLookups(t *testing.T) {
	g := evolved()
	if g.GetRelationship(0, 2) == nil || g.GetRelationship(0, 4) == nil {
		t.Error("rel 0 alive in [2,5)")
	}
	if g.GetRelationship(0, 5) != nil || g.GetRelationship(0, 6) != nil {
		t.Error("rel 0 dead in [5,7)")
	}
	if g.GetRelationship(0, 7) == nil {
		t.Error("rel 0 re-added at 7")
	}
	if g.GetRelationship(0, 1) != nil {
		t.Error("rel 0 before creation")
	}
	if g.GetNode(2, 8) == nil || g.GetNode(2, 9) != nil {
		t.Error("node 2 lifetime")
	}
	// Deleting node 2 makes rel 1 invisible (endpoint check).
	if g.GetRelationship(1, 9) != nil {
		t.Error("rel with dead endpoint visible")
	}
}

func TestMultigraphRestriction(t *testing.T) {
	g := New()
	g.IngestAll([]model.Update{
		model.AddNode(1, 0, nil, nil),
		model.AddNode(1, 1, nil, nil),
		model.AddRel(2, 0, 0, 1, "A", nil),
		model.AddRel(3, 1, 0, 1, "B", nil), // second edge same endpoints: dropped
		model.AddRel(4, 2, 1, 0, "C", nil), // reverse direction: kept
	})
	if g.Skipped() != 1 {
		t.Errorf("skipped = %d, want 1", g.Skipped())
	}
	if f := g.LoadedFraction(); f <= 0.5 || f >= 1 {
		t.Errorf("loaded fraction = %v", f)
	}
	if g.GetRelationship(1, 5) != nil {
		t.Error("dropped rel must not resolve")
	}
	if g.GetRelationship(2, 5) == nil {
		t.Error("reverse edge must resolve")
	}
}

func TestSnapshotMatchesTimeline(t *testing.T) {
	g := evolved()
	snap := g.Snapshot(4)
	if snap.NodeCount() != 3 || snap.RelCount() != 2 {
		t.Errorf("snapshot@4 = %d/%d", snap.NodeCount(), snap.RelCount())
	}
	snap = g.Snapshot(6)
	if snap.RelCount() != 1 {
		t.Errorf("snapshot@6 rels = %d", snap.RelCount())
	}
	snap = g.Snapshot(9)
	if snap.NodeCount() != 2 {
		t.Errorf("snapshot@9 nodes = %d", snap.NodeCount())
	}
}

func TestNeighboursAndNHop(t *testing.T) {
	g := evolved()
	nbs := g.Neighbours(0, model.Outgoing, 3)
	if len(nbs) != 1 || nbs[0].Tgt != 1 {
		t.Errorf("neighbours of 0 at 3: %v", nbs)
	}
	if len(g.Neighbours(0, model.Outgoing, 6)) != 0 {
		t.Error("neighbours after deletion")
	}
	hops := g.NHop(0, model.Outgoing, 2, 3)
	if len(hops[0]) != 1 || hops[0][0] != 1 {
		t.Errorf("hop1: %v", hops[0])
	}
	if len(hops[1]) != 1 || hops[1][0] != 2 {
		t.Errorf("hop2: %v", hops[1])
	}
}

// Skipped reports dropped multigraph relationships.
func (g *Graph) Skipped() int64 { return g.skipped }
