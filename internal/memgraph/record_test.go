package memgraph

// The records behind the read accessors: a seeded differential test against a
// map-based model, Export's bytes pinned by a golden file, and entities that
// are the caller's copies.

import (
	"bytes"
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"testing"

	"aion/internal/enc"
	"aion/internal/model"
	"aion/internal/strstore"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/export.golden")

// scramble is a write on every entity of g: a property set on each node, every
// second relationship deleted, and a node created past the last id.
func scramble(g *Graph) []model.Update {
	at := g.Timestamp() + 1
	var us []model.Update
	g.ForEachNode(func(n *model.Node) bool {
		us = append(us, model.UpdateNode(at, n.ID, nil, nil, model.Properties{"q": model.IntValue(int64(n.ID))}, nil))
		return true
	})
	g.ForEachRel(func(r *model.Rel) bool {
		if r.ID%2 == 0 {
			us = append(us, model.DeleteRel(at, r.ID, r.Src, r.Tgt))
		}
		return true
	})
	return append(us, model.AddNode(at, g.MaxNodeID(), []string{"S"}, nil))
}

// goldenExports is the Export of every graph Apply, Clone and Unite build at
// each cut of two seeded histories — the graph, a clone written to, the window
// since the previous cut — encoded the way a snapshot file holds them.
func goldenExports(t *testing.T) []byte {
	t.Helper()
	codec := enc.NewCodec(strstore.NewMem())
	var out []byte
	for seed := int64(1); seed <= 2; seed++ {
		h := newSharedHistory(seed, 1000)
		g, prev := New(), 0
		for _, cut := range h.cuts {
			mustApply(t, g, h.us[prev:cut]...)
			c := g.Clone()
			mustApply(t, c, scramble(c)...)
			w := windowOf(t, h.us, h.us[max(prev, 1)-1].TS, g.Timestamp()+1)
			for _, x := range []*Graph{g, c, w} {
				out = append(out, updateBytes(t, codec, x.Export())...)
			}
			prev = cut
		}
	}
	return out
}

// Export writes what it always wrote: the updates of every graph the
// differential test builds encode to the bytes of testdata/export.golden.
func TestExportBytesAreGolden(t *testing.T) {
	got := goldenExports(t)
	if *updateGolden {
		if err := os.WriteFile("testdata/export.golden", got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile("testdata/export.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Export encodes to %d bytes that differ from the golden %d", len(got), len(want))
	}
}

// mapGraph is the reference model: every entity a *model.Node or *model.Rel
// in a map, replaced whole on every write.
type mapGraph struct {
	nodes map[model.NodeID]*model.Node
	rels  map[model.RelID]*model.Rel
	ts    model.Timestamp
}

func newMapGraph() *mapGraph {
	return &mapGraph{nodes: map[model.NodeID]*model.Node{}, rels: map[model.RelID]*model.Rel{}}
}

func (m *mapGraph) clone() *mapGraph {
	return &mapGraph{nodes: maps.Clone(m.nodes), rels: maps.Clone(m.rels), ts: m.ts}
}

// apply is Apply on the model; the stream is valid, so nothing is checked.
func (m *mapGraph) apply(u model.Update) {
	live := model.Interval{Start: u.TS, End: model.TSInfinity}
	switch u.Kind {
	case model.OpAddNode:
		n := &model.Node{ID: u.NodeID, Valid: live}
		u.ApplyToNode(n)
		m.nodes[u.NodeID] = n
	case model.OpUpdateNode:
		o := m.nodes[u.NodeID]
		n := &model.Node{ID: o.ID, Labels: slices.Clone(o.Labels), Props: o.Props.Clone(), Valid: o.Valid}
		u.ApplyToNode(n)
		m.nodes[u.NodeID] = n
	case model.OpDeleteNode:
		delete(m.nodes, u.NodeID)
	case model.OpAddRel:
		r := &model.Rel{ID: u.RelID, Src: u.Src, Tgt: u.Tgt, Label: u.RelLabel, Valid: live}
		u.ApplyToRel(r)
		m.rels[u.RelID] = r
	case model.OpUpdateRel:
		o := m.rels[u.RelID]
		r := &model.Rel{ID: o.ID, Src: o.Src, Tgt: o.Tgt, Label: o.Label, Props: o.Props.Clone(), Valid: o.Valid}
		u.ApplyToRel(r)
		m.rels[u.RelID] = r
	case model.OpDeleteRel:
		delete(m.rels, u.RelID)
	}
	m.ts = max(m.ts, u.TS)
}

// unite is Unite on the model: deletions retire nothing, a creation replaces.
func (m *mapGraph) unite(u model.Update) {
	if u.Kind != model.OpDeleteNode && u.Kind != model.OpDeleteRel {
		m.apply(u)
	}
}

// export is Export on the model: nodes by id, then relationships by id.
func (m *mapGraph) export() []model.Update {
	var us []model.Update
	for _, id := range sortedKeys(m.nodes) {
		us = append(us, model.AddNode(m.ts, id, m.nodes[id].Labels, m.nodes[id].Props))
	}
	for _, id := range sortedKeys(m.rels) {
		r := m.rels[id]
		us = append(us, model.AddRel(m.ts, id, r.Src, r.Tgt, r.Label, r.Props))
	}
	return us
}

// approxBytes is ApproxBytes on the model.
func (m *mapGraph) approxBytes() int64 {
	b := 2 * NeighEntryBytes * int64(len(m.rels))
	props := func(ps model.Properties) {
		for k, v := range ps {
			b += int64(len(k) + v.ApproxBytes())
		}
	}
	for _, n := range m.nodes {
		b += NodeBytes
		for _, l := range n.Labels {
			b += int64(len(l))
		}
		props(n.Props)
	}
	for _, r := range m.rels {
		b += RelBytes
		props(r.Props)
	}
	return b
}

func sortedKeys[K model.NodeID | model.RelID, V any](m map[K]V) []K {
	ks := make([]K, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}

// sameAs holds g to m through every reader: the counts and timestamp, Node and
// HasNode, Rel, Ends and RelProp, the adjacency lists as sets, EachNeighbour,
// both ForEach walks, Export's bytes and ApproxBytes. starts false skips
// Valid.Start, which a graph loaded beside a reference may take from it; it
// is then only held to the graph's time.
func sameAs(t *testing.T, label string, codec *enc.Codec, g *Graph, m *mapGraph, starts bool) {
	t.Helper()
	if g.NodeCount() != len(m.nodes) || g.RelCount() != len(m.rels) || g.Timestamp() != m.ts {
		t.Fatalf("%s: %d nodes, %d relationships at %d; the model holds %d, %d at %d",
			label, g.NodeCount(), g.RelCount(), g.Timestamp(), len(m.nodes), len(m.rels), m.ts)
	}
	valid := func(got, want model.Interval) bool {
		return got.End == model.TSInfinity && got.Start <= g.Timestamp() && (!starts || got.Start == want.Start)
	}
	out, in := map[model.NodeID][]model.RelID{}, map[model.NodeID][]model.RelID{}
	for id, r := range m.rels {
		out[r.Src], in[r.Tgt] = append(out[r.Src], id), append(in[r.Tgt], id)
	}
	for id := model.NodeID(0); id <= g.MaxNodeID(); id++ {
		got, want := g.Node(id), m.nodes[id]
		if g.HasNode(id) != (want != nil) || (got == nil) != (want == nil) || want != nil && (got.ID != id ||
			!slices.Equal(got.Labels, want.Labels) || !got.Props.Equal(want.Props) || !valid(got.Valid, want.Valid)) {
			t.Fatalf("%s: node %d reads %+v, the model holds %+v", label, id, got, want)
		}
		if !sameSet(g.Out(id), out[id]) || !sameSet(g.In(id), in[id]) {
			t.Fatalf("%s: node %d's lists are %v and %v, the model's %v and %v", label, id, g.Out(id), g.In(id), out[id], in[id])
		}
		n := 0
		g.EachNeighbour(id, model.Both, func(rid model.RelID, nb model.NodeID) bool {
			if r := m.rels[rid]; r == nil || nb != r.Src^r.Tgt^id {
				t.Fatalf("%s: node %d meets %d over relationship %d, the model's %+v", label, id, nb, rid, r)
			}
			n++
			return true
		})
		if n != len(out[id])+len(in[id]) {
			t.Fatalf("%s: node %d has %d neighbours, the model %d", label, id, n, len(out[id])+len(in[id]))
		}
	}
	for id := model.RelID(0); id <= g.MaxRelID(); id++ {
		got, want := g.Rel(id), m.rels[id]
		src, tgt, live := g.Ends(id)
		w, hasW := g.RelProp(id, "w")
		if live != (want != nil) || (got == nil) != (want == nil) || want != nil && (got.ID != id || got.Src != want.Src ||
			got.Tgt != want.Tgt || got.Label != want.Label || !got.Props.Equal(want.Props) ||
			!valid(got.Valid, want.Valid) || src != want.Src || tgt != want.Tgt || !w.Equal(want.Props["w"]) || hasW != (want.Props["w"].Kind() != model.KindNull)) {
			t.Fatalf("%s: relationship %d reads %+v (ends %d, %d), the model holds %+v", label, id, got, src, tgt, want)
		}
	}
	var nodes []model.NodeID
	var rels []model.RelID
	g.ForEachNode(func(n *model.Node) bool { nodes = append(nodes, n.ID); return true })
	g.ForEachRel(func(r *model.Rel) bool { rels = append(rels, r.ID); return true })
	if !slices.Equal(nodes, sortedKeys(m.nodes)) || !slices.Equal(rels, sortedKeys(m.rels)) {
		t.Fatalf("%s: the walks visit %v and %v", label, nodes, rels)
	}
	if updateBytes(t, codec, g.Export()) != updateBytes(t, codec, m.export()) || g.ApproxBytes() != m.approxBytes() {
		t.Fatalf("%s: Export or ApproxBytes (%d, the model's %d) differs", label, g.ApproxBytes(), m.approxBytes())
	}
}

func sameSet(a, b []model.RelID) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}

// TestRecordsMatchTheMapModel holds the records to the map model through every
// way a graph is written: Apply at each cut of seeded histories, a clone
// written to while the original goes on, the window since the previous cut
// (Unite), and each cut's Export loaded beside the latest graph (ApplyShared),
// its chunks traded for the latest graph's (ShareChunks), then written to.
// Nothing written to one graph shows in another, and sharedRecords counts what
// ApplyShared reported shared.
func TestRecordsMatchTheMapModel(t *testing.T) {
	codec := enc.NewCodec(strstore.NewMem())
	for seed := int64(1); seed <= 4; seed++ {
		h := newSharedHistory(seed, 1200)
		g, m := New(), newMapGraph()
		type written struct {
			g     *Graph
			m     *mapGraph
			label string
		}
		var clones []written
		var models []*mapGraph // the model at each cut
		prev := 0
		for _, cut := range h.cuts {
			label := fmt.Sprintf("seed %d, %d updates", seed, cut)
			for _, u := range h.us[prev:cut] {
				mustApply(t, g, u)
				m.apply(u)
			}
			sameAs(t, label, codec, g, m, true)
			c, cm := g.Clone(), m.clone()
			for _, u := range scramble(c) {
				mustApply(t, c, u)
				cm.apply(u)
			}
			clones = append(clones, written{c, cm, label + ", a clone written to"})
			if prev > 0 {
				start, end := h.us[prev-1].TS, g.Timestamp()+1
				w, wm := windowOf(t, h.us, start, end), newMapGraph()
				for _, u := range h.us {
					if u.TS <= start {
						wm.apply(u)
					} else if u.TS < end {
						wm.unite(u)
					}
				}
				sameAs(t, label+", the window", codec, w, wm, true)
			}
			models, prev = append(models, m.clone()), cut
		}
		for _, c := range clones {
			sameAs(t, c.label, codec, c.g, c.m, true)
		}
		ref := g.Clone()
		for i, at := range models {
			label := fmt.Sprintf("seed %d, cut %d beside the latest graph", seed, i)
			beside := New()
			said := applyShared(t, beside, ref, at.export())
			sameAs(t, label, codec, beside, at, false)
			if nodes, rels := sharedRecords(beside, ref); nodes+rels != said {
				t.Fatalf("%s: %d records shared, ApplyShared said %d", label, nodes+rels, said)
			}
			beside.ShareChunks(ref)
			sameAs(t, label+", chunks shared", codec, beside, at, false)
			wm := at.clone()
			for _, u := range scramble(beside) {
				mustApply(t, beside, u)
				wm.apply(u)
			}
			sameAs(t, label+", written to", codec, beside, wm, false)
		}
		sameAs(t, fmt.Sprintf("seed %d, the latest graph", seed), codec, ref, m, true)
		sameAs(t, fmt.Sprintf("seed %d, its clone", seed), codec, g, m, true)
	}
}

// Every read builds the caller's own entity, or lends one (ForEachNode):
// writing its Props, appending to its Labels or editing Export's updates
// leaves the graph as it was.
func TestEntitiesAreTheCallersOwn(t *testing.T) {
	g := New()
	mustApply(t, g,
		model.AddNode(1, 0, []string{"A", "B"}, model.Properties{"p": model.IntValue(1)}),
		model.AddNode(1, 1, []string{"A"}, nil),
		model.AddRel(2, 0, 0, 1, "R", model.Properties{"w": model.IntValue(2)}))
	codec := enc.NewCodec(strstore.NewMem())
	before := exportBytes(t, codec, g)
	node := func(n *model.Node) bool {
		n.Labels = append(n.Labels, "Z")
		if n.Props != nil {
			n.Props["p"] = model.IntValue(-1)
			delete(n.Props, "p")
		}
		return true
	}
	rel := func(r *model.Rel) bool {
		r.Props["w"], r.Props["x"] = model.IntValue(-1), model.IntValue(-1)
		return true
	}
	node(g.Node(0))
	rel(g.Rel(0))
	g.ForEachNode(node)
	g.ForEachRel(rel)
	g.Neighbours(0, model.Both, func(r *model.Rel, _ model.NodeID) bool { return rel(r) })
	for _, u := range g.Export() {
		u.AddLabels = append(u.AddLabels, "Z")
		if u.SetProps != nil {
			u.SetProps["w"] = model.IntValue(-1)
		}
	}
	if exportBytes(t, codec, g) != before || g.Node(0).Labels[1] != "B" || len(g.Node(0).Labels) != 2 {
		t.Fatal("a write to an entity the graph handed out reached the graph")
	}
	// Labels grown one at a time have room to spare: two readers appending
	// must not write into the same array.
	mustApply(t, g, model.AddNode(3, 2, []string{"A", "B", "C"}, nil))
	a, b := g.Node(2).Labels, g.Node(2).Labels
	if a, b = append(a, "Z"), append(b, "Y"); a[3] != "Z" || b[3] != "Y" {
		t.Fatalf("two readers' appends to one node's labels met: %v, %v", a, b)
	}
}

var (
	sinkNode *model.Node
	sinkRel  *model.Rel
)

// What a read allocates, per entity, where every entity has properties: Export
// builds a property map per entity (a Go map of one or two entries is two
// allocations) and nothing else, ForEachRel adds the relationship, ForEachNode
// lends one node and one map for the whole scan, and the id accessors build
// nothing. The map is the price of model.Properties being a Go map; the bounds
// keep a read from paying more than that.
func TestReadAllocations(t *testing.T) {
	g := New()
	for i := range 256 {
		mustApply(t, g, model.AddNode(1, model.NodeID(i), []string{"N"}, model.Properties{"a": model.IntValue(1), "b": model.IntValue(2)}))
		if i > 0 {
			mustApply(t, g, model.AddRel(2, model.RelID(i), model.NodeID(i-1), model.NodeID(i), "R", model.Properties{"w": model.IntValue(3)}))
		}
	}
	nodes, rels := float64(g.NodeCount()), float64(g.RelCount())
	for _, c := range []struct {
		name     string
		max      float64 // allocations per entity
		entities float64
		fn       func()
	}{
		{"Export", 2, nodes + rels, func() { g.Export() }},
		{"ForEachRel", 3, rels, func() { g.ForEachRel(func(r *model.Rel) bool { sinkRel = r; return true }) }},
		{"HasNode, Ends and EachNeighbour", 0, nodes + rels, func() {
			for i := range g.MaxNodeID() {
				g.HasNode(i)
				g.Ends(model.RelID(i))
				g.EachNeighbour(i, model.Both, func(model.RelID, model.NodeID) bool { return true })
			}
		}},
	} {
		if per := testing.AllocsPerRun(5, c.fn) / c.entities; per > c.max+0.01 {
			t.Errorf("%s: %.2f allocations per entity, want at most %.0f", c.name, per, c.max)
		}
	}
	// The node, its map and the map's one group, whatever the graph's size.
	if per := testing.AllocsPerRun(5, func() { g.ForEachNode(func(n *model.Node) bool { sinkNode = n; return true }) }); per > 3 {
		t.Errorf("ForEachNode: %.0f allocations per scan of %.0f nodes, want at most 3", per, nodes)
	}
}
