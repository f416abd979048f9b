package lineagestore

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"aion/internal/model"
	"aion/internal/testkit/refmodel"
)

// sweep compares every LineageStore read with the reference model's: at every
// commit timestamp through last (and one past it) each node and relationship
// ever created, each node's relationships in all three directions, every
// node's state through one NodesAt read in a random order; and ranged
// histories over random windows.
func sweep(t *testing.T, s *Store, m *refmodel.Model, h *refmodel.History, last model.Timestamp) {
	ctx := context.Background()
	t.Helper()
	dirs := []model.Direction{model.Outgoing, model.Incoming, model.Both}
	check := func(start, end model.Timestamp) {
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
		if start == end {
			statesMatch(t, s, m, h.Rand.Perm(int(h.Nodes)), start)
		}
	}
	for at := model.Timestamp(0); at <= last+1; at++ {
		check(at, at)
	}
	for i := 0; i < 12; i++ {
		start := model.Timestamp(h.Rand.Int63n(int64(last)))
		check(start, start+1+model.Timestamp(h.Rand.Int63n(int64(last-start)+2)))
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
				leaves := s.outRels.DiskBytes() / 4096
				t.Logf("%d updates over %d nodes and %d relationships; outrels.idx %d pages", len(h.Updates), h.Nodes, h.Rels, leaves)
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
	}
	statesMatch(t, s, m, rand.New(rand.NewSource(1)).Perm(spokes+1), 4) // every spoke, through one cursor past its yields
}

// statesMatch compares one NodesAt read of the nodes ids names, in that
// order, with the model's state of each at ts.
func statesMatch(t *testing.T, s *Store, m *refmodel.Model, ids []int, ts model.Timestamp) {
	t.Helper()
	nids := make([]model.NodeID, len(ids))
	for i, id := range ids {
		nids[i] = model.NodeID(id)
	}
	got, err := s.NodesAtContext(context.Background(), nids, ts, nil)
	if err != nil || len(got) != len(ids) {
		t.Fatalf("NodesAt(%d nodes, %d): %d states (%v)", len(ids), ts, len(got), err)
	}
	for i, id := range nids {
		want := m.GetNode(id, ts, ts)
		if (got[i] == nil) != (len(want) == 0) || got[i] != nil && !refmodel.SameNodes(got[i:i+1], want) {
			t.Fatalf("NodesAt(..., %d) of node %d = %v, the model says %s", ts, id, got[i], refmodel.ShowNodes(want))
		}
	}
}

// readsAgree compares every relationship read of nodes and rels over each
// window — a point relationship read, and each node's relationships in all
// three directions — with the reference model's.
func readsAgree(t *testing.T, s *Store, m *refmodel.Model, nodes []model.NodeID, rels []model.RelID, windows [][2]model.Timestamp) {
	t.Helper()
	ctx := context.Background()
	for _, w := range windows {
		for _, id := range rels {
			got, err := s.GetRelationshipContext(ctx, id, w[0], w[1])
			if want := m.GetRelationship(id, w[0], w[1]); err != nil || !refmodel.SameRels(got, want) {
				t.Fatalf("GetRelationship(%d, %d, %d) = %s (%v), the model says %s", id, w[0], w[1], refmodel.ShowRels(got), err, refmodel.ShowRels(want))
			}
		}
		for _, id := range nodes {
			for _, d := range []model.Direction{model.Outgoing, model.Incoming, model.Both} {
				got, err := s.GetRelationshipsContext(ctx, id, d, w[0], w[1])
				if want := m.GetRelationships(id, d, w[0], w[1]); err != nil || !slices.EqualFunc(got, want, refmodel.SameRels) {
					t.Fatalf("GetRelationships(%d, %v, %d, %d) = %s (%v), the model says %s", id, d, w[0], w[1],
						refmodel.ShowRels(slices.Concat(got...)), err, refmodel.ShowRels(slices.Concat(want...)))
				}
			}
		}
	}
}

// TestReinsertedRelationshipMatchesTheReferenceModel: a relationship id that
// is deleted and comes back under other endpoints — first 1->2, then 3->1,
// then 1->4 — has its versions in two clusters, node 1's and node 3's. A
// point read walks each cluster the source index names for it; an expand
// lists, from each endpoint, the lifetimes incident to it that way: at each
// instant, and over windows that span several lifetimes.
func TestReinsertedRelationshipMatchesTheReferenceModel(t *testing.T) {
	s := openStore(t, Options{ChainThreshold: 2})
	defer s.Close()
	p := func(v int64) model.Properties { return model.Properties{"w": model.IntValue(v)} }
	us := []model.Update{
		model.AddNode(1, 1, nil, nil), model.AddNode(1, 2, nil, nil), model.AddNode(1, 3, nil, nil), model.AddNode(1, 4, nil, nil),
		model.AddRel(2, 5, 1, 2, "R", p(1)),
		model.UpdateRel(3, 5, 1, 2, p(2), nil),
		model.UpdateRel(4, 5, 1, 2, p(3), nil),
		model.DeleteRel(5, 5, 1, 2),
		model.AddRel(6, 5, 3, 1, "S", p(4)),
		model.UpdateRel(7, 5, 3, 1, p(5), nil),
		model.DeleteRel(8, 5, 3, 1),
		model.AddRel(9, 5, 1, 4, "T", nil),
		model.UpdateRel(10, 5, 1, 4, p(6), nil),
		model.AddRel(10, 6, 2, 1, "R", nil), // a neighbour that stays
	}
	m := &refmodel.Model{}
	m.Apply(us...)
	apply(t, s, us...)
	var windows [][2]model.Timestamp
	for at := model.Timestamp(0); at <= 11; at++ {
		windows = append(windows, [2]model.Timestamp{at, at})
	}
	windows = append(windows, [][2]model.Timestamp{{0, 12}, {2, 7}, {3, 10}, {5, 6}, {6, 9}, {4, 11}}...)
	readsAgree(t, s, m, []model.NodeID{1, 2, 3, 4}, []model.RelID{5, 6}, windows)
	// The window over all three lifetimes: two of them leave node 1 and one enters it.
	if got, err := s.GetRelationshipsContext(context.Background(), 1, model.Both, 0, 12); err != nil || len(got) != 3 {
		t.Fatalf("node 1 over [0, 12) under Both: %s (%v), want rel 5 out, rel 5 in and rel 6 in", refmodel.ShowRels(slices.Concat(got...)), err)
	}
}

// TestSelfLoopIsListedOnce: under Both a self-loop is one of the outgoing
// relationships, and the incoming scan leaves it out.
func TestSelfLoopIsListedOnce(t *testing.T) {
	s := openStore(t, Options{})
	defer s.Close()
	us := []model.Update{
		model.AddNode(1, 1, nil, nil), model.AddNode(1, 2, nil, nil),
		model.AddRel(2, 1, 1, 1, "LOOP", nil),
		model.AddRel(2, 2, 1, 2, "R", nil),
		model.AddRel(3, 3, 2, 1, "R", nil),
		model.UpdateRel(4, 1, 1, 1, model.Properties{"w": model.IntValue(1)}, nil),
	}
	m := &refmodel.Model{}
	m.Apply(us...)
	apply(t, s, us...)
	readsAgree(t, s, m, []model.NodeID{1, 2}, []model.RelID{1, 2, 3}, [][2]model.Timestamp{{2, 2}, {4, 4}, {0, 5}, {3, 5}})
	got, err := s.GetRelationshipsContext(context.Background(), 1, model.Both, 4, 4)
	var ids []model.RelID
	for _, vs := range got {
		ids = append(ids, vs[0].ID)
	}
	if err != nil || !slices.Equal(ids, []model.RelID{1, 2, 3}) {
		t.Fatalf("node 1 under Both lists %v (%v), want the self-loop once, among the outgoing: [1 2 3]", ids, err)
	}
}

// TestHubClusterAcrossLeavesUnderWrites: a hub of more than 3*cancelStride
// out-relationships, each with a long property history, so that its cluster
// spans many leaves, read while a second goroutine applies batches: each read
// yields its cursor every cancelStride relationships, lets the writer in and
// reseeks, and still matches the reference model.
func TestHubClusterAcrossLeavesUnderWrites(t *testing.T) {
	s := openStore(t, Options{})
	defer s.Close()
	const hub, spokes, rounds = 0, 3*cancelStride + 7, 6
	var us []model.Update
	for i := 0; i <= spokes+1; i++ {
		us = append(us, model.AddNode(1, model.NodeID(i), []string{"N"}, nil))
	}
	ends := func(i int) (src, tgt model.NodeID) { // every fourth relationship points at the hub
		if i%4 == 0 {
			return model.NodeID(i), hub
		}
		return hub, model.NodeID(i)
	}
	for i := 1; i <= spokes; i++ {
		src, tgt := ends(i)
		us = append(us, model.AddRel(2, model.RelID(i), src, tgt, "R", nil))
	}
	for r := 0; r < rounds; r++ {
		for i := 1; i <= spokes; i++ {
			src, tgt := ends(i)
			us = append(us, model.UpdateRel(model.Timestamp(3+r), model.RelID(i), src, tgt,
				model.Properties{"w": model.IntValue(int64(r * i)), fmt.Sprintf("p%d", r): model.StringValue("history")}, nil))
		}
	}
	last := model.Timestamp(3 + rounds)
	for i := 5; i <= spokes; i += 9 {
		src, tgt := ends(i)
		us = append(us, model.DeleteRel(last, model.RelID(i), src, tgt))
	}
	m := &refmodel.Model{}
	m.Apply(us...)
	if err := s.ApplyBatch(us); err != nil {
		t.Fatal(err)
	}
	if leaves := s.outRels.DiskBytes() / 4096; leaves < 8 {
		t.Fatalf("the hub's cluster takes %d pages: too few to span several leaves", leaves)
	}
	stop, done := make(chan struct{}), make(chan error, 1)
	go func() { // relationships among the other nodes, after every read's window
		other := model.NodeID(spokes + 1)
		for ts, rel := last+1, model.RelID(spokes+1); ; ts, rel = ts+1, rel+1 {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			if err := s.ApplyBatch([]model.Update{model.AddRel(ts, rel, other, 1+model.NodeID(rel)%spokes, "W", nil)}); err != nil {
				done <- err
				return
			}
		}
	}()
	windows := [][2]model.Timestamp{{2, 2}, {5, 5}, {last, last}, {0, last + 1}, {4, 7}}
	for range 3 {
		readsAgree(t, s, m, []model.NodeID{hub}, nil, windows)
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
