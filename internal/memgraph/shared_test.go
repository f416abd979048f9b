package memgraph

// ApplyShared: a graph materialised beside a reference holds the reference's
// records wherever the two agree, and nothing a reader can see says so except
// Valid.Start, which stays at or before the graph's own time.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"aion/internal/enc"
	"aion/internal/model"
	"aion/internal/strstore"
)

// exportBytes is g's Export as the bytes a snapshot file would hold.
func exportBytes(t *testing.T, codec *enc.Codec, g *Graph) string {
	t.Helper()
	return updateBytes(t, codec, g.Export())
}

// updateBytes is us as the block a log or snapshot frame would hold.
func updateBytes(t *testing.T, codec *enc.Codec, us []model.Update) string {
	t.Helper()
	b, err := codec.AppendBlock(nil, us)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// fingerprint is everything of g a reader can reach: its Export, and every
// adjacency list in its order (which a graph loaded from a full and one
// replayed from zero need not agree on).
func fingerprint(t *testing.T, codec *enc.Codec, g *Graph) string {
	t.Helper()
	b := []byte(exportBytes(t, codec, g))
	for id := model.NodeID(0); id < g.MaxNodeID(); id++ {
		b = fmt.Append(b, id, g.Out(id), g.In(id))
	}
	return string(b)
}

// sharedHistory is a seeded update stream over a few dozen entity ids and a
// tiny content domain, so that everything the sharing rule must tell apart
// keeps happening: entities deleted and created again under their id with the
// content they had, property values flipped and flipped back, labels edited,
// relationships created again between other endpoints. Several updates share
// a timestamp; cuts[i] is a number of updates that ends one.
type sharedHistory struct {
	us   []model.Update
	cuts []int
}

func newSharedHistory(seed int64, steps int) sharedHistory {
	type rel struct {
		src, tgt model.NodeID
		label    string
		w        int64
	}
	rng := rand.New(rand.NewSource(seed))
	var h sharedHistory
	var liveNodes, deadNodes []model.NodeID
	var liveRels, deadRels []model.RelID
	rels := map[model.RelID]rel{}
	degree := map[model.NodeID]int{}
	ts := model.Timestamp(1)
	take := func(ids *[]model.NodeID) model.NodeID {
		i := rng.Intn(len(*ids))
		id := (*ids)[i]
		*ids = slices.Delete(*ids, i, i+1)
		return id
	}
	// A node's content at creation is a function of its id, so a re-creation
	// repeats it; a relationship's is drawn from two values.
	addNode := func(id model.NodeID) {
		labels := [][]string{nil, {"A"}, {"A", "B"}}[id%3]
		h.us = append(h.us, model.AddNode(ts, id, labels, model.Properties{"p": model.IntValue(int64(id % 2))}))
		liveNodes = append(liveNodes, id)
	}
	addRel := func(id model.RelID, r rel) {
		h.us = append(h.us, model.AddRel(ts, id, r.src, r.tgt, r.label, model.Properties{"w": model.IntValue(r.w)}))
		rels[id] = r
		liveRels = append(liveRels, id)
		degree[r.src]++
		degree[r.tgt]++
	}
	delRel := func(i int) {
		id := liveRels[i]
		r := rels[id]
		h.us = append(h.us, model.DeleteRel(ts, id, r.src, r.tgt))
		liveRels = slices.Delete(liveRels, i, i+1)
		deadRels = append(deadRels, id)
		degree[r.src]--
		degree[r.tgt]--
	}
	for step := 0; step < steps; step++ {
		if step%4 == 3 {
			if step%100 == 99 {
				h.cuts = append(h.cuts, len(h.us))
			}
			ts++
		}
		switch k := rng.Intn(100); {
		case len(liveNodes) < 4 || k < 12:
			if len(deadNodes) > 0 && rng.Intn(2) == 0 {
				addNode(take(&deadNodes))
			} else {
				addNode(model.NodeID(len(liveNodes) + len(deadNodes)))
			}
		case k < 40:
			r := rel{liveNodes[rng.Intn(len(liveNodes))], liveNodes[rng.Intn(len(liveNodes))], "R", int64(rng.Intn(2))}
			id := model.RelID(len(liveRels) + len(deadRels))
			if len(deadRels) > 0 && rng.Intn(2) == 0 {
				i := rng.Intn(len(deadRels))
				id = deadRels[i]
				deadRels = slices.Delete(deadRels, i, i+1)
				// Half of the re-creations repeat the old incarnation exactly.
				if old := rels[id]; rng.Intn(2) == 0 && allLive(liveNodes, old.src, old.tgt) {
					r = old
				}
			}
			addRel(id, r)
		case k < 55: // flip a node property between two values, or drop it
			id := liveNodes[rng.Intn(len(liveNodes))]
			if rng.Intn(4) == 0 {
				h.us = append(h.us, model.UpdateNode(ts, id, nil, nil, nil, []string{"p"}))
			} else {
				h.us = append(h.us, model.UpdateNode(ts, id, nil, nil, model.Properties{"p": model.IntValue(int64(rng.Intn(2)))}, nil))
			}
		case k < 63: // label edit
			id, l := liveNodes[rng.Intn(len(liveNodes))], []string{[]string{"A", "B", "C"}[rng.Intn(3)]}
			if rng.Intn(2) == 0 {
				h.us = append(h.us, model.UpdateNode(ts, id, l, nil, nil, nil))
			} else {
				h.us = append(h.us, model.UpdateNode(ts, id, nil, l, nil, nil))
			}
		case k < 73 && len(liveRels) > 0:
			id := liveRels[rng.Intn(len(liveRels))]
			r := rels[id]
			r.w = int64(rng.Intn(2))
			rels[id] = r
			h.us = append(h.us, model.UpdateRel(ts, id, r.src, r.tgt, model.Properties{"w": model.IntValue(r.w)}, nil))
		case k < 88 && len(liveRels) > 0:
			delRel(rng.Intn(len(liveRels)))
		default: // delete a node, its relationships first
			i := rng.Intn(len(liveNodes))
			id := liveNodes[i]
			for j := len(liveRels) - 1; j >= 0 && degree[id] > 0; j-- {
				if r := rels[liveRels[j]]; r.src == id || r.tgt == id {
					delRel(j)
				}
			}
			h.us = append(h.us, model.DeleteNode(ts, id))
			liveNodes = slices.Delete(liveNodes, i, i+1)
			deadNodes = append(deadNodes, id)
		}
	}
	return h
}

func allLive(live []model.NodeID, ids ...model.NodeID) bool {
	for _, id := range ids {
		if !slices.Contains(live, id) {
			return false
		}
	}
	return true
}

// sharedChunks counts the chunks g holds that are ref's.
func sharedChunks(g, ref *Graph) int {
	return sameChunks(&g.nodes, &ref.nodes) + sameChunks(&g.rels, &ref.rels) + sameChunks(&g.out, &ref.out) + sameChunks(&g.in, &ref.in)
}

func sameChunks[T any](v, ref *vec[T]) (n int) {
	for k := range min(len(v.dir), len(ref.dir)) {
		if c := v.dir[k].c; c != nil && c == ref.dir[k].c {
			n++
		}
	}
	return n
}

// applyShared folds us into g beside ref and returns how many of the entity
// versions they produced are ref's records.
func applyShared(t *testing.T, g, ref *Graph, us []model.Update) (shared int) {
	t.Helper()
	for _, u := range us {
		same, err := g.ApplyShared(u, ref)
		if err != nil {
			t.Fatalf("%v: %v", u, err)
		}
		if same {
			shared++
		}
	}
	return shared
}

// sameRecord reports whether g holds node id's record (rels false) or
// relationship id's (rels true) as ref does: the very same one.
func sameRecord(g, ref *Graph, id int, rels bool) bool {
	if rels {
		r := g.rels.get(id)
		return r != nil && r == ref.rels.get(id)
	}
	n := g.nodes.get(id)
	return n != nil && n == ref.nodes.get(id)
}

// wantSharedWithinTime checks the contract on every record g has in common
// with ref — it was created at or before g's time — and returns their number,
// which sharedRecords must agree with.
func wantSharedWithinTime(t *testing.T, label string, g, ref *Graph) (common int) {
	t.Helper()
	g.ForEachNode(func(n *model.Node) bool {
		if sameRecord(g, ref, int(n.ID), false) {
			common++
			if n.Valid.Start > g.Timestamp() {
				t.Errorf("%s: shared node %d starts at %d", label, n.ID, n.Valid.Start)
			}
		}
		return true
	})
	g.ForEachRel(func(r *model.Rel) bool {
		if sameRecord(g, ref, int(r.ID), true) {
			common++
			if r.Valid.Start > g.Timestamp() {
				t.Errorf("%s: shared relationship %d starts at %d", label, r.ID, r.Valid.Start)
			}
		}
		return true
	})
	if nodes, rels := sharedRecords(g, ref); nodes+rels != common {
		t.Errorf("%s: sharedRecords counts %d nodes and %d relationships, %d shared", label, nodes, rels, common)
	}
	return common
}

// Whatever a history does, a graph loaded beside the latest graph — from a
// full, or from a full and the updates after it, as a delta is — reads exactly
// like one loaded alone; and writing to it afterwards never shows in the
// reference, adjacency included.
func TestApplySharedChangesNothingReadable(t *testing.T) {
	codec := enc.NewCodec(strstore.NewMem())
	for seed := int64(1); seed <= 6; seed++ {
		h := newSharedHistory(seed, 1600)
		latest := New()
		mustApply(t, latest, h.us...)
		ref := latest.Clone()
		refPrint := fingerprint(t, codec, ref)

		truth, prevCut := New(), 0
		var prevAlone, prevShared *Graph
		var sharers []*Graph
		sharerCut := map[*Graph]int{} // the number of updates a sharer has seen
		common, recreated := 0, 0
		for _, cut := range h.cuts {
			mustApply(t, truth, h.us[prevCut:cut]...)
			label := fmt.Sprintf("seed %d, %d updates (ts %d)", seed, cut, truth.Timestamp())
			full := truth.Export()

			alone, beside := New(), New()
			mustApply(t, alone, full...)
			said := applyShared(t, beside, ref, full)
			want := fingerprint(t, codec, alone)
			if got := fingerprint(t, codec, beside); got != want {
				t.Fatalf("%s: a full loaded beside the latest graph reads differently", label)
			}
			if in := wantSharedWithinTime(t, label, beside, ref); in != said {
				t.Errorf("%s: ApplyShared reported %d shared entities, the graph holds %d", label, said, in)
			}
			common += said
			// What the guard is for: an entity the full holds, and the latest
			// graph holds again with the same content — born later.
			for _, u := range full {
				var start model.Timestamp = -1
				if n := ref.Node(u.NodeID); u.Kind == model.OpAddNode && n != nil && !sameRecord(beside, ref, int(u.NodeID), false) &&
					slices.Equal(n.Labels, u.AddLabels) && n.Props.Equal(u.SetProps) {
					start = n.Valid.Start
				}
				if r := ref.Rel(u.RelID); u.Kind == model.OpAddRel && r != nil && !sameRecord(beside, ref, int(u.RelID), true) &&
					r.Src == u.Src && r.Tgt == u.Tgt && r.Props.Equal(u.SetProps) {
					start = r.Valid.Start
				}
				if start >= 0 {
					recreated++
					if start <= beside.Timestamp() {
						t.Errorf("%s: %v equals the latest graph's incarnation of %d and is not shared", label, u, start)
					}
				}
			}
			// The delta path: the previous element's graph, cloned, plus the
			// updates since.
			if prevShared != nil {
				twin, next := prevAlone.Clone(), prevShared.Clone()
				mustApply(t, twin, h.us[prevCut:cut]...)
				applyShared(t, next, ref, h.us[prevCut:cut])
				if fingerprint(t, codec, next) != fingerprint(t, codec, twin) || exportBytes(t, codec, next) != exportBytes(t, codec, alone) {
					t.Fatalf("%s: updates applied beside the latest graph read differently", label)
				}
				wantSharedWithinTime(t, label+" (delta)", next, ref)
				sharers, sharerCut[next] = append(sharers, next), cut
			}
			prevAlone, prevShared, prevCut = alone, beside, cut
			sharers, sharerCut[beside] = append(sharers, beside), cut
		}
		if common == 0 || recreated == 0 {
			t.Fatalf("seed %d: %d shared entities, %d later incarnations with equal content; the history exercises nothing", seed, common, recreated)
		}

		// Every sharer goes on through the rest of the history, and then has
		// every relationship deleted: the reference must not notice.
		for _, g := range sharers {
			mustApply(t, g, h.us[sharerCut[g]:]...)
			if exportBytes(t, codec, g) != exportBytes(t, codec, ref) {
				t.Fatalf("seed %d: a sharer replayed to the end differs from the latest graph", seed)
			}
			g.ForEachRel(func(r *model.Rel) bool {
				mustApply(t, g, model.DeleteRel(g.Timestamp()+1, r.ID, r.Src, r.Tgt))
				return true
			})
		}
		if fingerprint(t, codec, ref) != refPrint || fingerprint(t, codec, latest) != refPrint {
			t.Fatalf("seed %d: writing to the sharers changed the reference", seed)
		}
	}
}

// A→B→A: the version a snapshot holds is equal to the latest one, which is
// another record of the same incarnation — shared. A re-creation is not.
func TestApplySharedTellsIncarnationsApart(t *testing.T) {
	p := func(v int64) model.Properties { return model.Properties{"p": model.IntValue(v)} }
	latest := New()
	mustApply(t, latest,
		model.AddNode(1, 0, []string{"A"}, p(1)),
		model.AddNode(1, 1, []string{"A"}, p(1)),
		model.AddRel(1, 0, 0, 1, "R", p(1)),
		model.AddRel(1, 1, 0, 1, "R", p(1)),
		model.UpdateNode(2, 0, nil, nil, p(2), nil), // the snapshot is taken at 1
		model.UpdateNode(3, 0, nil, nil, p(1), nil),
		model.UpdateRel(3, 0, 0, 1, p(2), nil),
		model.DeleteRel(4, 1, 0, 1),
		model.AddRel(5, 1, 0, 1, "R", p(1)), // equal content, born at 5
		model.UpdateRel(5, 0, 0, 1, p(1), nil))
	ref := latest.Clone()
	full := []model.Update{
		model.AddNode(1, 0, []string{"A"}, p(1)),
		model.AddNode(1, 1, []string{"A"}, p(1)),
		model.AddRel(1, 0, 0, 1, "R", p(1)),
		model.AddRel(1, 1, 0, 1, "R", p(1)),
	}
	g := New()
	if got := applyShared(t, g, ref, full); got != 3 {
		t.Errorf("%d entities shared, want nodes 0 and 1 and relationship 0", got)
	}
	if !sameRecord(g, ref, 0, false) || !sameRecord(g, ref, 1, false) || !sameRecord(g, ref, 0, true) {
		t.Error("an entity whose content returned to what the snapshot holds is not shared")
	}
	if sameRecord(g, ref, 1, true) || g.Rel(1).Valid.Start != 1 {
		t.Errorf("relationship 1 was created again at 5; the graph at 1 holds %+v", g.Rel(1))
	}
	// The same records at 5 or later are the latest graph's, all four.
	for i := range full {
		full[i].TS = 5
	}
	if g = New(); applyShared(t, g, ref, full) != 4 || !sameRecord(g, ref, 1, true) {
		t.Error("at the re-creation's own time the new incarnation is the graph's")
	}
	// Other endpoints, another label order, another type: content differs.
	other := []model.Update{
		model.AddNode(5, 0, []string{"A"}, p(1)),
		model.AddNode(5, 1, nil, p(1)),
		model.AddRel(5, 0, 1, 0, "R", p(1)),
		model.AddRel(5, 1, 0, 1, "S", p(1)),
	}
	if g = New(); applyShared(t, g, ref, other) != 1 || sameRecord(g, ref, 0, true) || sameRecord(g, ref, 1, false) || sameRecord(g, ref, 1, true) {
		t.Error("a relationship between other endpoints or of another type, or a node with other labels, was shared")
	}
}

// Loading a full that the reference holds entirely allocates the graph's
// chunks and nothing per entity: no record, no property slice, no label slice,
// no adjacency list — those are the reference's. ShareChunks then trades every
// chunk for the reference's own.
func TestApplySharedOfEqualFullAllocatesVectorsOnly(t *testing.T) {
	const nodes, rels = 2000, 8000
	ref := New()
	for i := 0; i < nodes; i++ {
		mustApply(t, ref, model.AddNode(1, model.NodeID(i), []string{"P"}, model.Properties{"n": model.IntValue(int64(i))}))
	}
	for i := 0; i < rels; i++ {
		mustApply(t, ref, model.AddRel(2, model.RelID(i), model.NodeID(i%nodes), model.NodeID(i*7%nodes), "R", model.Properties{"w": model.IntValue(int64(i))}))
	}
	full := ref.Export()
	ref = ref.Clone() // as the loader's handle is: nobody owns the lists any more
	var g *Graph
	allocs := testing.AllocsPerRun(5, func() {
		g = New()
		if got := applyShared(t, g, ref, full); got != nodes+rels {
			t.Fatalf("%d of %d entities shared", got, nodes+rels)
		}
	})
	// One chunk per 256 ids of each of the four vectors (56), and the graph and
	// its directories growing (19).
	if want := (3*nodes+rels)/chunkLen + 24; allocs > float64(want) {
		t.Errorf("loading %d shared entities allocates %.0f times, want at most %d: O(chunks)", nodes+rels, allocs, want)
	}
	for id := model.NodeID(0); id < nodes; id++ {
		if &g.Out(id)[0] != &ref.Out(id)[0] || &g.In(id)[0] != &ref.In(id)[0] {
			t.Fatalf("node %d's adjacency lists are copies", id)
		}
	}
	g.ShareChunks(ref)
	if got, want := sharedChunks(g, ref), 3*((nodes+chunkLen-1)/chunkLen)+(rels+chunkLen-1)/chunkLen; got != want {
		t.Fatalf("after ShareChunks %d chunks are the reference's, want all %d", got, want)
	}
	// The chunks and lists are the reference's until written, then private.
	before, exported := slices.Clone(ref.Out(0)), exportBytes(t, enc.NewCodec(strstore.NewMem()), ref)
	mustApply(t, g, model.AddRel(3, rels, 0, 1, "R", nil), model.DeleteRel(4, 0, 0, 0),
		model.UpdateNode(4, 1, nil, nil, model.Properties{"n": model.IntValue(-1)}, nil))
	if !slices.Equal(ref.Out(0), before) || len(ref.In(1)) != len(g.In(1))-1 ||
		exportBytes(t, enc.NewCodec(strstore.NewMem()), ref) != exported {
		t.Error("a write to the loaded graph reached the reference")
	}
}

// sharedRecords counts the live nodes and relationships whose record g holds
// as ref does, the very same one: what ApplyShared and ShareChunks leave
// shared.
func sharedRecords(g, ref *Graph) (nodes, rels int) {
	g.nodes.each(func(i int, r *nodeRec) bool {
		if r != nil && r == ref.nodes.get(i) {
			nodes++
		}
		return true
	})
	g.rels.each(func(i int, r *relRec) bool {
		if r != nil && r == ref.rels.get(i) {
			rels++
		}
		return true
	})
	return nodes, rels
}
