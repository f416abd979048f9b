package hostdb

import (
	"math/rand"
	"slices"
	"testing"

	"aion/internal/memgraph"
	"aion/internal/model"
)

// TestTxReadsFoldTheStagedWrites: a transaction keeps only its staged updates,
// and a read folds them over the committed graph. After every write of seeded
// transactions — label and property edits, creations and deletions, some of
// them of entities created earlier in the same transaction — every entity read
// through the transaction is what the committed graph with the staged updates
// applied holds, and IncidentRels lists exactly a node's relationships; a
// commit leaves that graph behind, a rollback the one before.
func TestTxReadsFoldTheStagedWrites(t *testing.T) {
	db := openDB(t, Options{})
	rng := rand.New(rand.NewSource(7))
	labels := []string{"A", "B", "C"}
	for round := 0; round < 60; round++ {
		committed, _, _ := db.Committed()
		shadow, before := committed.Clone(), memgraph.New() // before holds records of its own
		if err := before.ApplyAll(committed.Export()); err != nil {
			t.Fatal(err)
		}
		tx := db.Begin()
		for step := 0; step < 10; step++ {
			var u model.Update
			var err error
			nodes, rels := liveIDs(shadow)
			switch k := rng.Intn(7); {
			case k == 0 || len(nodes) < 2:
				ls, props := labels[:rng.Intn(3)], model.Properties{"p": model.IntValue(rng.Int63n(3))}
				var id model.NodeID
				id, err = tx.CreateNode(ls, props)
				u = model.AddNode(0, id, ls, props)
			case k == 1:
				id, set := nodes[rng.Intn(len(nodes))], model.Properties{[]string{"p", "q"}[rng.Intn(2)]: model.IntValue(rng.Int63n(3))}
				del := []string{"p"}[:rng.Intn(2)]
				err, u = tx.SetNodeProps(id, set, del), model.UpdateNode(0, id, nil, nil, set, del)
			case k == 2:
				id, add, del := nodes[rng.Intn(len(nodes))], labels[rng.Intn(3):][:rng.Intn(2)], labels[rng.Intn(3):][:rng.Intn(2)]
				err, u = tx.SetNodeLabels(id, add, del), model.UpdateNode(0, id, add, del, nil, nil)
			case k == 3:
				src, tgt, props := nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))], model.Properties{"w": model.IntValue(rng.Int63n(3))}
				var id model.RelID
				id, err = tx.CreateRel(src, tgt, "R", props)
				u = model.AddRel(0, id, src, tgt, "R", props)
			case k == 4 && len(rels) > 0:
				id, set, del := rels[rng.Intn(len(rels))], model.Properties{"v": model.IntValue(rng.Int63n(3))}, []string{"w"}[:rng.Intn(2)]
				err, u = tx.SetRelProps(id, set, del), model.UpdateRel(0, id, 0, 0, set, del)
			case k == 5 && len(rels) > 0:
				id := rels[rng.Intn(len(rels))]
				err, u = tx.DeleteRel(id), model.DeleteRel(0, id, 0, 0)
			default:
				id := nodes[rng.Intn(len(nodes))]
				if len(shadow.Out(id))+len(shadow.In(id)) > 0 {
					continue
				}
				err, u = tx.DeleteNode(id), model.DeleteNode(0, id)
			}
			if err != nil {
				t.Fatalf("round %d: staging %v: %v", round, u, err)
			}
			if err := shadow.Apply(u); err != nil {
				t.Fatalf("round %d: %v on the shadow: %v", round, u, err)
			}
			for id := model.NodeID(0); id <= shadow.MaxNodeID(); id++ {
				if got, want := tx.Node(id), shadow.Node(id); !sameNode(got, want) {
					t.Fatalf("round %d, after %v: node %d reads %+v through the transaction, want %+v", round, u, id, got, want)
				}
				got, want := tx.IncidentRels(id), slices.Concat(shadow.Out(id), shadow.In(id))
				slices.Sort(got)
				slices.Sort(want)
				if !slices.Equal(slices.Compact(got), slices.Compact(want)) {
					t.Fatalf("round %d, after %v: node %d's relationships read %v, want %v", round, u, id, got, want)
				}
			}
			for id := model.RelID(0); id <= shadow.MaxRelID(); id++ {
				if got, want := tx.Rel(id), shadow.Rel(id); !sameRel(got, want) {
					t.Fatalf("round %d, after %v: relationship %d reads %+v through the transaction, want %+v", round, u, id, got, want)
				}
			}
			sameGraph(t, "the committed graph while a transaction reads it", committed, before)
		}
		if round%4 == 3 {
			tx.Rollback()
			shadow = before
		} else if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		after, _, _ := db.Committed()
		sameGraph(t, "the committed graph after a transaction", after, shadow)
	}
}

// sameGraph holds g's nodes to want's, Valid aside.
func sameGraph(t *testing.T, label string, g, want *memgraph.Graph) {
	t.Helper()
	for id := model.NodeID(0); id <= max(g.MaxNodeID(), want.MaxNodeID()); id++ {
		if got, want := g.Node(id), want.Node(id); (got == nil) != (want == nil) || got != nil && !sameContent(got, want) {
			t.Fatalf("%s: node %d is %+v, want %+v", label, id, got, want)
		}
	}
}

func liveIDs(g *memgraph.Graph) (nodes []model.NodeID, rels []model.RelID) {
	g.ForEachNode(func(n *model.Node) bool { nodes = append(nodes, n.ID); return true })
	g.ForEachRel(func(r *model.Rel) bool { rels = append(rels, r.ID); return true })
	return nodes, rels
}

func sameContent(a, b *model.Node) bool {
	return a.ID == b.ID && slices.Equal(a.Labels, b.Labels) && a.Props.Equal(b.Props)
}

func sameNode(a, b *model.Node) bool {
	return a == nil && b == nil || a != nil && b != nil && sameContent(a, b) && a.Valid == b.Valid
}

func sameRel(a, b *model.Rel) bool {
	return a == nil && b == nil || a != nil && b != nil && a.ID == b.ID && a.Src == b.Src && a.Tgt == b.Tgt &&
		a.Label == b.Label && a.Props.Equal(b.Props) && a.Valid == b.Valid
}
