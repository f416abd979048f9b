package memgraph

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"aion/internal/model"
)

func mustApply(t *testing.T, g *Graph, us ...model.Update) {
	t.Helper()
	for _, u := range us {
		if err := g.Apply(u); err != nil {
			t.Fatalf("apply %v: %v", u, err)
		}
	}
}

func smallGraph(t *testing.T) *Graph {
	g := New()
	mustApply(t, g,
		model.AddNode(1, 0, []string{"Person"}, model.Properties{"name": model.StringValue("a")}),
		model.AddNode(2, 1, []string{"Person"}, nil),
		model.AddNode(3, 2, []string{"City"}, nil),
		model.AddRel(4, 0, 0, 1, "KNOWS", nil),
		model.AddRel(5, 1, 1, 2, "LIVES_IN", nil),
		model.AddRel(6, 2, 0, 2, "LIVES_IN", nil),
	)
	return g
}

func TestApplyBasicCounts(t *testing.T) {
	g := smallGraph(t)
	if g.NodeCount() != 3 || g.RelCount() != 3 {
		t.Fatalf("counts = %d nodes %d rels", g.NodeCount(), g.RelCount())
	}
	if g.Timestamp() != 6 {
		t.Errorf("ts = %d", g.Timestamp())
	}
	if g.Node(0) == nil || g.Node(9) != nil || g.Node(-1) != nil {
		t.Error("Node bounds")
	}
	if g.Rel(0).Label != "KNOWS" {
		t.Error("rel label")
	}
}

func TestAdjacency(t *testing.T) {
	g := smallGraph(t)
	if len(g.Out(0)) != 2 || len(g.In(0)) != 0 {
		t.Errorf("node 0 adjacency: out %d in %d", len(g.Out(0)), len(g.In(0)))
	}
	if len(g.In(2)) != 2 {
		t.Errorf("node 2 in = %d", len(g.In(2)))
	}
	if len(g.Out(1))+len(g.In(1)) != 2 {
		t.Error("degree")
	}
	var nbs []model.NodeID
	g.Neighbours(0, model.Outgoing, func(r *model.Rel, nb model.NodeID) bool {
		nbs = append(nbs, nb)
		return true
	})
	if len(nbs) != 2 || nbs[0] != 1 || nbs[1] != 2 {
		t.Errorf("neighbours of 0: %v", nbs)
	}
}

func TestConstraintViolations(t *testing.T) {
	g := smallGraph(t)
	if err := g.Apply(model.AddNode(7, 0, nil, nil)); !errors.Is(err, model.ErrExists) {
		t.Errorf("duplicate node: %v", err)
	}
	if err := g.Apply(model.DeleteNode(7, 99)); !errors.Is(err, model.ErrNotFound) {
		t.Errorf("missing node delete: %v", err)
	}
	if err := g.Apply(model.DeleteNode(7, 0)); !errors.Is(err, model.ErrHasRels) {
		t.Errorf("delete node with rels: %v", err)
	}
	if err := g.Apply(model.AddRel(7, 9, 0, 99, "X", nil)); !errors.Is(err, model.ErrDangling) {
		t.Errorf("dangling rel: %v", err)
	}
	if err := g.Apply(model.AddRel(7, 0, 0, 1, "X", nil)); !errors.Is(err, model.ErrExists) {
		t.Errorf("duplicate rel: %v", err)
	}
	if err := g.Apply(model.DeleteRel(7, 99, 0, 0)); !errors.Is(err, model.ErrNotFound) {
		t.Errorf("missing rel delete: %v", err)
	}
	if err := g.Apply(model.UpdateNode(7, 99, nil, nil, nil, nil)); !errors.Is(err, model.ErrNotFound) {
		t.Errorf("missing node update: %v", err)
	}
	if err := g.Apply(model.UpdateRel(7, 99, 0, 0, nil, nil)); !errors.Is(err, model.ErrNotFound) {
		t.Errorf("missing rel update: %v", err)
	}
}

func TestDeleteRelThenNode(t *testing.T) {
	g := smallGraph(t)
	mustApply(t, g,
		model.DeleteRel(7, 1, 1, 2),
		model.DeleteRel(8, 2, 0, 2),
	)
	if len(g.In(2)) != 0 {
		t.Error("in-adjacency not cleaned")
	}
	mustApply(t, g, model.DeleteNode(9, 2))
	if g.Node(2) != nil || g.NodeCount() != 2 {
		t.Error("node 2 should be gone")
	}
}

func TestUpdateNodeReplacesNotMutates(t *testing.T) {
	g := smallGraph(t)
	before := g.Node(0)
	mustApply(t, g, model.UpdateNode(7, 0, nil, nil, model.Properties{"age": model.IntValue(30)}, nil))
	after := g.Node(0)
	if before == after {
		t.Error("update must replace the node object (CoW safety)")
	}
	if _, ok := before.Props["age"]; ok {
		t.Error("old version must not see the new property")
	}
	if after.Props["age"].Int() != 30 {
		t.Error("new version must see the property")
	}
}

func TestCloneIsolation(t *testing.T) {
	g := smallGraph(t)
	snap := g.Clone()
	// Mutate the original heavily.
	mustApply(t, g,
		model.UpdateNode(10, 0, []string{"VIP"}, nil, nil, nil),
		model.AddNode(11, 5, []string{"New"}, nil),
		model.AddRel(12, 7, 5, 0, "FOLLOWS", nil),
		model.DeleteRel(13, 1, 1, 2),
	)
	if snap.NodeCount() != 3 || snap.RelCount() != 3 {
		t.Fatalf("clone changed: %d nodes %d rels", snap.NodeCount(), snap.RelCount())
	}
	if snap.Node(0).HasLabel("VIP") {
		t.Error("clone must not see label update")
	}
	if snap.Node(5) != nil {
		t.Error("clone must not see new node")
	}
	if len(snap.In(2)) != 2 {
		t.Error("clone adjacency changed by deletion in original")
	}
	// And the clone can be mutated without affecting the original.
	mustApply(t, snap, model.AddNode(14, 9, nil, nil))
	if g.Node(9) != nil {
		t.Error("original must not see clone's new node")
	}
}

func TestCloneOfCloneChain(t *testing.T) {
	g := smallGraph(t)
	c1 := g.Clone()
	c2 := c1.Clone()
	mustApply(t, c2, model.AddNode(20, 7, nil, nil))
	if c1.Node(7) != nil || g.Node(7) != nil {
		t.Error("chained clone leaked")
	}
	mustApply(t, g, model.AddNode(21, 8, nil, nil))
	if c1.Node(8) != nil || c2.Node(8) != nil {
		t.Error("root mutation leaked into clones")
	}
}

// TestConcurrentClones: readers may clone one graph at the same time — two
// holders of hostdb's read lock do — and each clone is whole. Run under -race:
// a clone that copied the struct would read the flag the other one stores.
func TestConcurrentClones(t *testing.T) {
	g := smallGraph(t)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 100; k++ {
				if c := g.Clone(); c.NodeCount() != 3 || c.RelCount() != 3 || c.Timestamp() != g.Timestamp() {
					t.Error("a concurrent clone is not the graph it was taken from")
					return
				}
			}
		}()
	}
	wg.Wait()
	mustApply(t, g, model.AddNode(30, 9, nil, nil)) // the original copies before it writes
}

func TestForEachIteration(t *testing.T) {
	g := smallGraph(t)
	n := 0
	g.ForEachNode(func(*model.Node) bool { n++; return true })
	if n != 3 {
		t.Errorf("ForEachNode visited %d", n)
	}
	r := 0
	g.ForEachRel(func(*model.Rel) bool { r++; return true })
	if r != 3 {
		t.Errorf("ForEachRel visited %d", r)
	}
	n = 0
	g.ForEachNode(func(*model.Node) bool { n++; return false })
	if n != 1 {
		t.Error("early stop")
	}
}

func TestExportRebuildsEquivalentGraph(t *testing.T) {
	g := smallGraph(t)
	mustApply(t, g, model.DeleteRel(7, 0, 0, 1))
	us := g.Export()
	g2 := New()
	if err := g2.ApplyAll(us); err != nil {
		t.Fatal(err)
	}
	if g2.NodeCount() != g.NodeCount() || g2.RelCount() != g.RelCount() {
		t.Fatal("export/rebuild counts differ")
	}
	g.ForEachNode(func(n *model.Node) bool {
		n2 := g2.Node(n.ID)
		if n2 == nil || !n.Props.Equal(n2.Props) {
			t.Errorf("node %d differs", n.ID)
		}
		return true
	})
}

func TestDenseMap(t *testing.T) {
	g := New()
	mustApply(t, g,
		model.AddNode(1, 10, nil, nil),
		model.AddNode(2, 20, nil, nil),
		model.AddNode(3, 30, nil, nil),
	)
	mustApply(t, g, model.DeleteNode(4, 20))
	dm := g.BuildDenseMap()
	if dm.Len() != 2 {
		t.Fatalf("dense len = %d", dm.Len())
	}
	if dm.ToSparse[dm.ToDense[10]] != 10 || dm.ToSparse[dm.ToDense[30]] != 30 {
		t.Error("round trip sparse<->dense")
	}
	if _, ok := dm.ToDense[20]; ok {
		t.Error("deleted node must not be mapped")
	}
}

func TestApproxBytesScalesWithEntities(t *testing.T) {
	g := smallGraph(t)
	small := g.ApproxBytes()
	for i := 10; i < 100; i++ {
		mustApply(t, g, model.AddNode(model.Timestamp(20+i), model.NodeID(i), nil, nil))
	}
	if g.ApproxBytes() <= small {
		t.Error("bytes must grow with nodes")
	}
}

func TestRandomApplyMatchesNaiveModel(t *testing.T) {
	// Property-style test: the vector-based graph must agree with a naive
	// map-based implementation under a random valid update stream.
	type naive struct {
		nodes map[model.NodeID]bool
		rels  map[model.RelID][2]model.NodeID
	}
	nv := naive{nodes: map[model.NodeID]bool{}, rels: map[model.RelID][2]model.NodeID{}}
	g := New()
	rng := rand.New(rand.NewSource(5))
	nextNode, nextRel := model.NodeID(0), model.RelID(0)
	ts := model.Timestamp(1)
	for step := 0; step < 5000; step++ {
		ts++
		switch rng.Intn(10) {
		case 0, 1, 2: // add node
			mustApply(t, g, model.AddNode(ts, nextNode, nil, nil))
			nv.nodes[nextNode] = true
			nextNode++
		case 3, 4, 5, 6: // add rel between random existing nodes
			if len(nv.nodes) < 2 {
				continue
			}
			var ids []model.NodeID
			for id := range nv.nodes {
				ids = append(ids, id)
			}
			s, x := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
			mustApply(t, g, model.AddRel(ts, nextRel, s, x, "R", nil))
			nv.rels[nextRel] = [2]model.NodeID{s, x}
			nextRel++
		case 7, 8: // delete a random rel
			for rid, ends := range nv.rels {
				mustApply(t, g, model.DeleteRel(ts, rid, ends[0], ends[1]))
				delete(nv.rels, rid)
				break
			}
		case 9: // delete a node with no incident rels
			for id := range nv.nodes {
				busy := false
				for _, ends := range nv.rels {
					if ends[0] == id || ends[1] == id {
						busy = true
						break
					}
				}
				if !busy {
					mustApply(t, g, model.DeleteNode(ts, id))
					delete(nv.nodes, id)
					break
				}
			}
		}
	}
	if g.NodeCount() != len(nv.nodes) || g.RelCount() != len(nv.rels) {
		t.Fatalf("counts: graph %d/%d naive %d/%d",
			g.NodeCount(), g.RelCount(), len(nv.nodes), len(nv.rels))
	}
	// Degrees must match a recount from the naive rel set.
	outDeg := map[model.NodeID]int{}
	inDeg := map[model.NodeID]int{}
	for _, ends := range nv.rels {
		outDeg[ends[0]]++
		inDeg[ends[1]]++
	}
	for id := range nv.nodes {
		if len(g.Out(id)) != outDeg[id] || len(g.In(id)) != inDeg[id] {
			t.Fatalf("node %d degree: out %d/%d in %d/%d",
				id, len(g.Out(id)), outDeg[id], len(g.In(id)), inDeg[id])
		}
	}
}
