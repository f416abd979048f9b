package lineagestore

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"aion/internal/model"
	"aion/internal/refmodel"
)

// stream is a seeded update history built to reach every corner of the read
// path: nodes and relationships deleted and created again under the same id,
// several relationships between one pair of endpoints (some born in the same
// commit), self-loops, a few hot entities updated often enough to cross
// ChainThreshold many times over, and property values long enough that a
// leaf holds a dozen records — so chains straddle leaf splits. One update
// per entity and commit, as the reference model's contract requires.
type stream struct {
	rng      *rand.Rand
	ts       model.Timestamp
	us       []model.Update
	nodes    map[model.NodeID]bool // live
	deadNode []model.NodeID
	rels     map[model.RelID][2]model.NodeID // live, with endpoints
	deadRel  map[model.RelID][2]model.NodeID
	degree   map[model.NodeID]int
	nextNode model.NodeID
	nextRel  model.RelID
	touched  map[int64]bool // entity keys updated in the current commit
}

func newStream(seed int64) *stream {
	return &stream{rng: rand.New(rand.NewSource(seed)), nodes: map[model.NodeID]bool{},
		rels: map[model.RelID][2]model.NodeID{}, deadRel: map[model.RelID][2]model.NodeID{}, degree: map[model.NodeID]int{}}
}

func (h *stream) props() model.Properties {
	p := model.Properties{fmt.Sprintf("p%d", h.rng.Intn(4)): model.StringValue(strings.Repeat("x", 40+h.rng.Intn(200)))}
	if h.rng.Intn(3) == 0 {
		p["n"] = model.IntValue(h.rng.Int63n(1000))
	}
	return p
}

func pick[K comparable, V any](rng *rand.Rand, m map[K]V, less func(a, b K) int) (k K, ok bool) {
	if len(m) == 0 {
		return k, false
	}
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, less)
	return keys[rng.Intn(len(keys))], true
}

func cmpNode(a, b model.NodeID) int { return int(a - b) }
func cmpRel(a, b model.RelID) int   { return int(a - b) }

// emit records u unless its entity already changed in this commit.
func (h *stream) emit(u model.Update) bool {
	if h.touched[u.EntityKey()] {
		return false
	}
	h.touched[u.EntityKey()] = true
	u.TS = h.ts
	h.us = append(h.us, u)
	return true
}

// commit appends one transaction of n attempted updates.
func (h *stream) commit(n int) {
	h.ts++
	h.touched = map[int64]bool{}
	for i := 0; i < n; i++ {
		switch r := h.rng.Intn(100); {
		case r < 12 || len(h.nodes) < 4: // a new node, or a deleted one back
			id := h.nextNode
			if len(h.deadNode) > 0 && h.rng.Intn(3) == 0 {
				id = h.deadNode[len(h.deadNode)-1]
			}
			if h.emit(model.AddNode(0, id, []string{"L", fmt.Sprintf("L%d", id%3)}, h.props())) {
				if h.nodes[id] = true; id == h.nextNode {
					h.nextNode++
				} else {
					h.deadNode = h.deadNode[:len(h.deadNode)-1]
				}
			}
		case r < 40: // update a node: the first few are hot
			id, _ := pick(h.rng, h.nodes, cmpNode)
			if hot := model.NodeID(h.rng.Intn(3)); h.nodes[hot] && h.rng.Intn(2) == 0 {
				id = hot
			}
			var add, del []string
			if h.rng.Intn(4) == 0 {
				add, del = []string{fmt.Sprintf("X%d", h.rng.Intn(3))}, []string{fmt.Sprintf("X%d", h.rng.Intn(3))}
			}
			var unset []string
			if h.rng.Intn(4) == 0 {
				unset = []string{fmt.Sprintf("p%d", h.rng.Intn(4))}
			}
			h.emit(model.UpdateNode(0, id, add, del, h.props(), unset))
		case r < 44: // delete a node no relationship holds
			if id, ok := pick(h.rng, h.nodes, cmpNode); ok && h.degree[id] == 0 && id > 2 && h.emit(model.DeleteNode(0, id)) {
				delete(h.nodes, id)
				h.deadNode = append(h.deadNode, id)
			}
		case r < 66: // a relationship: new, parallel to an existing one, a self-loop, or a deleted one back
			src, _ := pick(h.rng, h.nodes, cmpNode)
			tgt, _ := pick(h.rng, h.nodes, cmpNode)
			id := h.nextRel
			switch k := h.rng.Intn(10); {
			case k < 3 && len(h.rels) > 0:
				twin, _ := pick(h.rng, h.rels, cmpRel)
				src, tgt = h.rels[twin][0], h.rels[twin][1]
			case k == 3:
				tgt = src
			case k == 4 && len(h.deadRel) > 0:
				id, _ = pick(h.rng, h.deadRel, cmpRel)
				src, tgt = h.deadRel[id][0], h.deadRel[id][1]
			}
			if h.nodes[src] && h.nodes[tgt] && h.emit(model.AddRel(0, id, src, tgt, "R", h.props())) {
				h.rels[id] = [2]model.NodeID{src, tgt}
				h.degree[src]++
				h.degree[tgt]++
				if delete(h.deadRel, id); id == h.nextRel {
					h.nextRel++
				}
			}
		case r < 90: // update a relationship: the first few are hot
			id, ok := pick(h.rng, h.rels, cmpRel)
			if _, live := h.rels[model.RelID(h.rng.Intn(3))]; live && h.rng.Intn(2) == 0 {
				id = model.RelID(h.rng.Intn(3))
				_, ok = h.rels[id]
			}
			if ok {
				h.emit(model.UpdateRel(0, id, h.rels[id][0], h.rels[id][1], h.props(), nil))
			}
		default:
			if id, ok := pick(h.rng, h.rels, cmpRel); ok && id > 2 && h.emit(model.DeleteRel(0, id, h.rels[id][0], h.rels[id][1])) {
				h.degree[h.rels[id][0]]--
				h.degree[h.rels[id][1]]--
				h.deadRel[id] = h.rels[id]
				delete(h.rels, id)
			}
		}
	}
}

func showNodes(ns []*model.Node) string {
	var b strings.Builder
	for _, n := range ns {
		fmt.Fprintf(&b, "n%d%v %v %d props;", n.ID, n.Valid, n.Labels, len(n.Props))
	}
	return b.String()
}

func showRels(rs []*model.Rel) string {
	var b strings.Builder
	for _, r := range rs {
		fmt.Fprintf(&b, "r%d%v %d-[%s]->%d %d props;", r.ID, r.Valid, r.Src, r.Label, r.Tgt, len(r.Props))
	}
	return b.String()
}

func sameNodes(a, b []*model.Node) bool {
	return slices.EqualFunc(a, b, func(x, y *model.Node) bool {
		return x.ID == y.ID && x.Valid == y.Valid && slices.Equal(x.Labels, y.Labels) && x.Props.Equal(y.Props)
	})
}

func sameRels(a, b []*model.Rel) bool {
	return slices.EqualFunc(a, b, func(x, y *model.Rel) bool {
		return x.ID == y.ID && x.Valid == y.Valid && x.Src == y.Src && x.Tgt == y.Tgt && x.Label == y.Label && x.Props.Equal(y.Props)
	})
}

// sweep compares every LineageStore read with the reference model's: at every
// commit timestamp through last (and one past it) each node and relationship
// ever created, each node's relationships in all three directions, two-hop
// expands of a few nodes; and ranged histories over random windows.
func sweep(t *testing.T, s *Store, m *refmodel.Model, h *stream, last model.Timestamp) {
	t.Helper()
	dirs := []model.Direction{model.Outgoing, model.Incoming, model.Both}
	check := func(start, end model.Timestamp, expands int) {
		t.Helper()
		for id := model.NodeID(0); id < h.nextNode; id++ {
			got, err := s.GetNode(id, start, end)
			if want := m.GetNode(id, start, end); err != nil || !sameNodes(got, want) {
				t.Fatalf("GetNode(%d, %d, %d) = %s (%v), the model says %s", id, start, end, showNodes(got), err, showNodes(want))
			}
			for _, d := range dirs {
				got, err := s.GetRelationships(id, d, start, end)
				want := m.GetRelationships(id, d, start, end)
				if err != nil || !slices.EqualFunc(got, want, sameRels) {
					t.Fatalf("GetRelationships(%d, %v, %d, %d) = %s (%v), the model says %s", id, d, start, end,
						showRels(slices.Concat(got...)), err, showRels(slices.Concat(want...)))
				}
			}
		}
		for id := model.RelID(0); id < h.nextRel; id++ {
			got, err := s.GetRelationship(id, start, end)
			if want := m.GetRelationship(id, start, end); err != nil || !sameRels(got, want) {
				t.Fatalf("GetRelationship(%d, %d, %d) = %s (%v), the model says %s", id, start, end, showRels(got), err, showRels(want))
			}
		}
		for ; expands > 0; expands-- {
			id, d := model.NodeID(h.rng.Int63n(int64(h.nextNode))), dirs[h.rng.Intn(3)]
			got, err := s.Expand(id, d, 2, start)
			if want := m.Expand(id, d, 2, start); err != nil || !slices.EqualFunc(got, want, sameNodes) {
				t.Fatalf("Expand(%d, %v, 2, %d) = %s (%v), the model says %s", id, d, start,
					showNodes(slices.Concat(got...)), err, showNodes(slices.Concat(want...)))
			}
		}
	}
	for at := model.Timestamp(0); at <= last+1; at++ {
		check(at, at, 3)
	}
	for i := 0; i < 12; i++ {
		start := model.Timestamp(h.rng.Int63n(int64(last)))
		check(start, start+1+model.Timestamp(h.rng.Int63n(int64(last-start)+2)), 0)
	}
}

// TestReadsMatchTheReferenceModel is the LineageStore's differential oracle:
// seeded histories applied to a store (with an 8-page pool, so every read
// evicts) and to the reference model, all reads compared halfway and at the
// end — a version's End is the infinity of a stream that stops, then the
// timestamp of the update that followed — across chain thresholds, the pure
// delta chain included.
func TestReadsMatchTheReferenceModel(t *testing.T) {
	for _, threshold := range []int{DefaultChainThreshold, 2, -1} {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("threshold=%d/seed=%d", threshold, seed), func(t *testing.T) {
				s := openStore(t, Options{ChainThreshold: threshold, IndexCachePages: 2})
				defer s.Close()
				h, m := newStream(seed), &refmodel.Model{}
				const commits = 36
				for applied := 0; h.ts < commits; {
					h.commit(40)
					if err := s.ApplyBatch(h.us[applied:]); err != nil {
						t.Fatal(err)
					}
					m.Apply(h.us[applied:]...)
					if applied = len(h.us); h.ts == commits/2 || h.ts == commits {
						sweep(t, s, m, h, h.ts)
					}
				}
				if n := s.pcs[1].Pinned() + s.pcs[0].Pinned() + s.pcs[2].Pinned() + s.pcs[3].Pinned(); n != 0 {
					t.Errorf("the sweeps left %d pages pinned", n)
				}
				st, leaves := s.Stats(), s.rels.DiskBytes()/4096
				t.Logf("%d updates over %d nodes and %d relationships; rels.idx %d pages; %d page evictions", len(h.us), h.nextNode, h.nextRel, leaves, st.Cache.Evictions)
				if leaves < 8 || st.Cache.Evictions == 0 {
					t.Errorf("the history is too small to split leaves under its chains (%d pages) or to evict (%d)", leaves, st.Cache.Evictions)
				}
			})
		}
	}
}

// TestHubReadsMatchTheReferenceModel: a node with more relationships than a
// multi-entity read keeps its cursor for — it yields the tree every
// cancelStride entities — is read like any other.
func TestHubReadsMatchTheReferenceModel(t *testing.T) {
	s := openStore(t, Options{IndexCachePages: 2})
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
			got, err := s.GetRelationships(hub, d, w[0], w[1])
			if want := m.GetRelationships(hub, d, w[0], w[1]); err != nil || !slices.EqualFunc(got, want, sameRels) {
				t.Fatalf("GetRelationships(hub, %v, %d, %d): %d relationships (%v), the model says %d", d, w[0], w[1], len(got), err, len(want))
			}
		}
		got, err := s.Expand(1, d, 2, 4) // a spoke, the hub, every spoke
		if want := m.Expand(1, d, 2, 4); err != nil || !slices.EqualFunc(got, want, sameNodes) {
			t.Fatalf("Expand(1, %v, 2, 4) = %s (%v), the model says %s", d,
				showNodes(slices.Concat(got...)), err, showNodes(slices.Concat(want...)))
		}
	}
}
