package lineagestore

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"aion/internal/model"
	"aion/internal/testkit/refmodel"
)

// sweep compares every LineageStore read with the reference model's: at every
// commit timestamp through last (and one past it) each node and relationship
// ever created, each node's relationships in all three directions, two-hop
// expands of a few nodes; and ranged histories over random windows.
func sweep(t *testing.T, s *Store, m *refmodel.Model, h *refmodel.History, last model.Timestamp) {
	ctx := context.Background()
	t.Helper()
	dirs := []model.Direction{model.Outgoing, model.Incoming, model.Both}
	check := func(start, end model.Timestamp, expands int) {
		t.Helper()
		for id := model.NodeID(0); id < h.Nodes; id++ {
			got, err := s.GetNodeContext(ctx, id, start, end)
			if want := m.GetNode(id, start, end); err != nil || !refmodel.SameNodes(got, want) {
				t.Fatalf("GetNode(%d, %d, %d) = %s (%v), the model says %s", id, start, end, refmodel.ShowNodes(got), err, refmodel.ShowNodes(want))
			}
			for _, d := range dirs {
				got, err := s.GetRelationshipsContext(ctx, id, d, start, end)
				want := m.GetRelationships(id, d, start, end)
				if err != nil || !slices.EqualFunc(got, want, refmodel.SameRels) {
					t.Fatalf("GetRelationships(%d, %v, %d, %d) = %s (%v), the model says %s", id, d, start, end,
						refmodel.ShowRels(slices.Concat(got...)), err, refmodel.ShowRels(slices.Concat(want...)))
				}
			}
		}
		for id := model.RelID(0); id < h.Rels; id++ {
			got, err := s.GetRelationshipContext(ctx, id, start, end)
			if want := m.GetRelationship(id, start, end); err != nil || !refmodel.SameRels(got, want) {
				t.Fatalf("GetRelationship(%d, %d, %d) = %s (%v), the model says %s", id, start, end, refmodel.ShowRels(got), err, refmodel.ShowRels(want))
			}
		}
		for ; expands > 0; expands-- {
			id, d := model.NodeID(h.Rand.Int63n(int64(h.Nodes))), dirs[h.Rand.Intn(3)]
			got, err := s.ExpandContext(ctx, id, d, 2, start)
			if want := m.Expand(id, d, 2, start); err != nil || !slices.EqualFunc(got, want, refmodel.SameNodes) {
				t.Fatalf("Expand(%d, %v, 2, %d) = %s (%v), the model says %s", id, d, start,
					refmodel.ShowNodes(slices.Concat(got...)), err, refmodel.ShowNodes(slices.Concat(want...)))
			}
		}
	}
	for at := model.Timestamp(0); at <= last+1; at++ {
		check(at, at, 3)
	}
	for i := 0; i < 12; i++ {
		start := model.Timestamp(h.Rand.Int63n(int64(last)))
		check(start, start+1+model.Timestamp(h.Rand.Int63n(int64(last-start)+2)), 0)
	}
}

// TestReadsMatchTheReferenceModel is the LineageStore's differential oracle:
// seeded histories applied to a store and to the reference model, all reads
// compared halfway and at the end — a version's End is the infinity of a stream that stops, then the
// timestamp of the update that followed — across chain thresholds, the pure
// delta chain included.
func TestReadsMatchTheReferenceModel(t *testing.T) {
	for _, threshold := range []int{DefaultChainThreshold, 3, 2, -1} {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("threshold=%d/seed=%d", threshold, seed), func(t *testing.T) {
				s := openStore(t, Options{ChainThreshold: threshold})
				defer s.Close()
				h, m := refmodel.NewHistory(seed), &refmodel.Model{}
				const commits = 36
				for h.TS < commits {
					us := h.Commit(52)
					if err := s.ApplyBatch(us); err != nil {
						t.Fatal(err)
					}
					if m.Apply(us...); h.TS == commits/2 || h.TS == commits {
						sweep(t, s, m, h, h.TS)
					}
				}
				leaves := s.rels.DiskBytes() / 4096
				t.Logf("%d updates over %d nodes and %d relationships; rels.idx %d pages", len(h.Updates), h.Nodes, h.Rels, leaves)
				if leaves < 8 {
					t.Errorf("the history is too small to split leaves under its chains (%d pages)", leaves)
				}
			})
		}
	}
}

// TestHubReadsMatchTheReferenceModel: a node with more relationships than a
// multi-entity read keeps its cursor for — it yields the tree every
// cancelStride entities — is read like any other.
func TestHubReadsMatchTheReferenceModel(t *testing.T) {
	ctx := context.Background()
	s := openStore(t, Options{})
	defer s.Close()
	const hub, spokes = 0, 3*cancelStride + 7
	var us []model.Update
	for i := 0; i <= spokes; i++ {
		us = append(us, model.AddNode(1, model.NodeID(i), []string{"N"}, nil))
	}
	ends := func(i int) (src, tgt model.NodeID) { // every third relationship points at the hub
		if i%3 == 0 {
			return model.NodeID(i), hub
		}
		return hub, model.NodeID(i)
	}
	for i := 1; i <= spokes; i++ {
		src, tgt := ends(i)
		us = append(us, model.AddRel(2, model.RelID(i), src, tgt, "R", nil))
	}
	for i := 1; i <= spokes; i += 5 {
		src, tgt := ends(i)
		us = append(us, model.UpdateRel(3, model.RelID(i), src, tgt, model.Properties{"w": model.IntValue(int64(i))}, nil))
	}
	for i := 2; i <= spokes; i += 7 {
		src, tgt := ends(i)
		us = append(us, model.DeleteRel(4, model.RelID(i), src, tgt))
	}
	m := &refmodel.Model{}
	m.Apply(us...)
	if err := s.ApplyBatch(us); err != nil {
		t.Fatal(err)
	}
	for _, d := range []model.Direction{model.Outgoing, model.Incoming, model.Both} {
		for _, w := range [][2]model.Timestamp{{2, 2}, {4, 4}, {0, 5}, {3, 4}} {
			got, err := s.GetRelationshipsContext(ctx, hub, d, w[0], w[1])
			if want := m.GetRelationships(hub, d, w[0], w[1]); err != nil || !slices.EqualFunc(got, want, refmodel.SameRels) {
				t.Fatalf("GetRelationships(hub, %v, %d, %d): %d relationships (%v), the model says %d", d, w[0], w[1], len(got), err, len(want))
			}
		}
		got, err := s.ExpandContext(ctx, 1, d, 2, 4) // a spoke, the hub, every spoke
		if want := m.Expand(1, d, 2, 4); err != nil || !slices.EqualFunc(got, want, refmodel.SameNodes) {
			t.Fatalf("Expand(1, %v, 2, 4) = %s (%v), the model says %s", d,
				refmodel.ShowNodes(slices.Concat(got...)), err, refmodel.ShowNodes(slices.Concat(want...)))
		}
	}
}
