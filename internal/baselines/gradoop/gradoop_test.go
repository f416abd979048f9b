package gradoop

import (
	"testing"

	"aion/internal/model"
)

func loaded() *Engine {
	e := New()
	e.LoadAll([]model.Update{
		model.AddNode(1, 0, []string{"A"}, nil),
		model.AddNode(1, 1, nil, nil),
		model.AddNode(1, 2, nil, nil),
		model.AddRel(2, 0, 0, 1, "R", model.Properties{"w": model.IntValue(1)}),
		model.AddRel(3, 1, 1, 2, "R", nil),
		model.UpdateNode(4, 0, nil, nil, model.Properties{"x": model.IntValue(9)}, nil),
		model.DeleteRel(5, 0, 0, 1),
		model.DeleteNode(6, 2),
	})
	return e
}

func TestTableRows(t *testing.T) {
	e := loaded()
	nrows, rrows := e.Rows()
	if nrows != 4 { // 3 inserts + 1 update version
		t.Errorf("node rows = %d, want 4", nrows)
	}
	if rrows != 2 {
		t.Errorf("rel rows = %d, want 2", rrows)
	}
}

func TestSnapshotScanFilterJoin(t *testing.T) {
	e := loaded()
	g := e.Snapshot(3)
	if g.NodeCount() != 3 || g.RelCount() != 2 {
		t.Errorf("snapshot@3 = %d/%d", g.NodeCount(), g.RelCount())
	}
	// After node 2 is deleted, rel 1 (1->2) must be dropped by the
	// verification join.
	g = e.Snapshot(6)
	if g.NodeCount() != 2 {
		t.Errorf("snapshot@6 nodes = %d", g.NodeCount())
	}
	if g.RelCount() != 0 {
		t.Errorf("snapshot@6 rels = %d (dangling rel survived the join)", g.RelCount())
	}
	// Version selection: node 0 at ts 5 carries the updated property.
	g = e.Snapshot(5)
	if g.Node(0).Props["x"].Int() != 9 {
		t.Error("updated node version not selected")
	}
	if g.Node(0).Props["x"].Kind() == model.KindNull {
		t.Error("property missing")
	}
	// Before the update the old version rules.
	g = e.Snapshot(3)
	if _, ok := g.Node(0).Props["x"]; ok {
		t.Error("future property visible in the past")
	}
}

func TestPointQueriesFullScan(t *testing.T) {
	e := loaded()
	if r := e.GetRelationship(0, 4); r == nil || r.Props["w"].Int() != 1 {
		t.Error("rel 0 at 4")
	}
	if e.GetRelationship(0, 5) != nil {
		t.Error("rel 0 deleted at 5")
	}
	if n := e.GetNode(0, 4); n == nil || n.Props["x"].Int() != 9 {
		t.Error("node version at 4")
	}
	if e.GetNode(2, 6) != nil {
		t.Error("deleted node visible")
	}
	if e.GetNode(99, 4) != nil {
		t.Error("unknown node")
	}
}

func TestParallelSnapshotMatchesSerial(t *testing.T) {
	e := loaded()
	e.Parallelism = 1
	serial := e.Snapshot(3)
	e.Parallelism = 8
	parallel := e.Snapshot(3)
	if serial.NodeCount() != parallel.NodeCount() || serial.RelCount() != parallel.RelCount() {
		t.Error("parallelism changed the result")
	}
}

// Rows returns the table sizes (node rows, rel rows).
func (e *Engine) Rows() (int, int) { return len(e.nodes), len(e.rels) }

// GetNode returns the node version valid at ts via a full node-table scan.
func (e *Engine) GetNode(id model.NodeID, ts model.Timestamp) *model.Node {
	for i := range e.nodes {
		n := decodeNodeRow(e.nodes[i])
		if n.id == id && n.valid.Contains(ts) {
			return &model.Node{ID: n.id, Labels: n.labels, Props: n.props, Valid: n.valid}
		}
	}
	return nil
}
