package memgraph

import (
	"reflect"
	"runtime"
	"testing"

	"aion/internal/model"
	"aion/internal/testkit/benchshape"
)

func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestResidentBytesPerEntity bounds what one entity of the benchmark-shaped
// graph (two int properties on every node, one string property on every
// second relationship) really costs on the heap, beside the 96 B that
// ApproxBytes books for it. Measured 113 B with immutable 16 B and 32 B
// records pointing to 48 B attributes, which the relationships without a
// property share, and 32 B a property; this budget is that + 10 %. It was 122 B
// with labels or type and property slice in a 64 B record, and 289 B with a
// *model.Node or *model.Rel per entity, whose property map's single 8-slot
// group is 8 + 8 × (16 + sizeof(Value)) bytes — 264 B, a 288 B size class —
// for the 67 500 entities that carry one.
func TestResidentBytesPerEntity(t *testing.T) {
	const budget = 124
	us := benchshape.Updates(1)
	before := liveHeap()
	g := New()
	if err := g.ApplyAll(us); err != nil {
		t.Fatal(err)
	}
	resident := liveHeap() - before
	entities := uint64(g.NodeCount() + g.RelCount())
	runtime.KeepAlive(us)
	t.Logf("%d entities: %d B resident (%d B/entity), %d B accounted (%d B/entity)",
		entities, resident, resident/entities, g.ApproxBytes(), uint64(g.ApproxBytes())/entities)
	if per := resident / entities; per > budget {
		t.Fatalf("%d resident bytes per entity, budget %d", per, budget)
	}
}

// A property-only update of a node in a cloned graph allocates the record, its
// attributes and their property slice: 3 objects, as with a property map (4
// before the label slice was shared between versions).
func TestPropertyUpdateSharesLabels(t *testing.T) {
	base := New()
	mustApply(t, base, model.AddNode(1, 0, []string{"Person"}, model.Properties{"a": model.IntValue(1)}))
	g := base.Clone()
	u := model.UpdateNode(2, 0, nil, nil, model.Properties{"a": model.IntValue(2)}, nil)
	if got := testing.AllocsPerRun(100, func() { _ = g.Apply(u) }); got > 3 {
		t.Errorf("property-only Apply: %v allocations, want <= 3", got)
	}
}

// A label-only update keeps the property slice: it allocates the record, its
// attributes and their label slice.
func TestLabelUpdateSharesProps(t *testing.T) {
	base := New()
	mustApply(t, base, model.AddNode(1, 0, []string{"Person"}, model.Properties{"a": model.IntValue(1)}))
	g := base.Clone()
	u := model.UpdateNode(2, 0, []string{"Author"}, nil, nil, nil)
	mustApply(t, g, u)
	if &g.nodes.get(0).props[0] != &base.nodes.get(0).props[0] {
		t.Error("a label-only update copied the property slice")
	}
	if got := testing.AllocsPerRun(100, func() { _ = g.Apply(u) }); got > 3 {
		t.Errorf("label-only Apply: %v allocations, want <= 3", got)
	}
}

// Nodes and relationships added without properties share one attribute set
// per label set or type, and a node with properties its labels.
func TestAddsShareBlankAttributes(t *testing.T) {
	g := New()
	mustApply(t, g,
		model.AddNode(1, 0, []string{"A"}, nil),
		model.AddNode(2, 1, []string{"A"}, nil),
		model.AddNode(3, 2, []string{"A"}, model.Properties{"p": model.IntValue(1)}),
		model.AddNode(4, 3, []string{"B"}, nil),
		model.AddRel(5, 0, 0, 1, "L", nil),
		model.AddRel(6, 1, 1, 2, "L", nil),
		model.AddRel(7, 2, 1, 2, "M", nil))
	n0, n1, n2, n3 := g.nodes.get(0), g.nodes.get(1), g.nodes.get(2), g.nodes.get(3)
	if n0.nodeAttrs != n1.nodeAttrs || &n2.labels[0] != &n0.labels[0] || n3.nodeAttrs == n0.nodeAttrs {
		t.Error("node adds without properties do not share their attributes by label set")
	}
	if g.rels.get(0).relAttrs != g.rels.get(1).relAttrs || g.rels.get(2).relAttrs == g.rels.get(0).relAttrs {
		t.Error("relationship adds without properties do not share their attributes by type")
	}
	if got, want := g.Node(3).Labels, []string{"B"}; !reflect.DeepEqual(got, want) {
		t.Errorf("labels %v, want %v", got, want)
	}
}

// Label edits work on a private copy: a CoW sibling sees no label deleted or
// added later.
func TestLabelEditCopiesOnWrite(t *testing.T) {
	base := New()
	mustApply(t, base, model.AddNode(1, 0, []string{"A", "B", "C"}, nil))
	g := base.Clone()
	mustApply(t, g,
		model.UpdateNode(2, 0, nil, nil, model.Properties{"p": model.IntValue(1)}, nil),
		model.UpdateNode(3, 0, nil, []string{"A"}, nil, nil),
		model.UpdateNode(4, 0, []string{"D"}, nil, nil, nil))
	if got, want := base.Node(0).Labels, []string{"A", "B", "C"}; !reflect.DeepEqual(got, want) {
		t.Errorf("original labels = %v, want %v", got, want)
	}
	if got, want := g.Node(0).Labels, []string{"B", "C", "D"}; !reflect.DeepEqual(got, want) {
		t.Errorf("clone labels = %v, want %v", got, want)
	}
}
