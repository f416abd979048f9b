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
// second relationship) really costs on the heap, beside the 96 B that ApproxBytes books for
// it. Measured 289 B with the 16-byte model.Value in chunked vectors, 397 B
// with a 40-byte value and 710 B with a 104-byte one; this budget (the
// measurement + 10 %) rejects both:
// 67 500 of the 120 000 entities carry a property map whose single 8-slot
// group is 8 + 8 × (16 + sizeof(Value)) bytes — 264 B (a 288 B size class)
// against 456 B (480 B) and 968 B (1 024 B).
func TestResidentBytesPerEntity(t *testing.T) {
	const budget = 318
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

// A property-only update of a node in a cloned graph allocates the node, its
// property map and that map's slot group: 3 objects (4 before the label
// slice was shared between versions).
func TestPropertyUpdateSharesLabels(t *testing.T) {
	base := New()
	mustApply(t, base, model.AddNode(1, 0, []string{"Person"}, model.Properties{"a": model.IntValue(1)}))
	g := base.Clone()
	u := model.UpdateNode(2, 0, nil, nil, model.Properties{"a": model.IntValue(2)}, nil)
	if got := testing.AllocsPerRun(100, func() { _ = g.Apply(u) }); got > 3 {
		t.Errorf("property-only Apply: %v allocations, want <= 3", got)
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
