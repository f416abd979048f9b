package datagen

import (
	"sort"
	"testing"

	"aion/internal/memgraph"
	"aion/internal/model"
)

func TestPresetsScale(t *testing.T) {
	for _, name := range Names() {
		spec, err := Preset(name, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if spec.Nodes <= 0 || spec.Rels <= 0 {
			t.Errorf("%s: empty spec", name)
		}
		full := MustPreset(name, 1)
		if full.Nodes < spec.Nodes {
			t.Errorf("%s: scaling grew the graph", name)
		}
	}
	if _, err := Preset("NoSuch", 1); err == nil {
		t.Error("unknown preset must fail")
	}
}

func TestGenerateStreamIsValid(t *testing.T) {
	spec := MustPreset("DBLP", 1000)
	ds := Generate(spec, Options{Seed: 1})
	if !monotone(ds.Updates) {
		t.Fatal("stream not monotone")
	}
	// The stream must apply cleanly: nodes always precede incident rels.
	g := memgraph.New()
	if err := g.ApplyAll(ds.Updates); err != nil {
		t.Fatalf("stream does not apply: %v", err)
	}
	if g.NodeCount() != spec.Nodes {
		t.Errorf("nodes = %d, want %d", g.NodeCount(), spec.Nodes)
	}
	if g.RelCount() < spec.Rels-1 || g.RelCount() > spec.Rels {
		t.Errorf("rels = %d, want ~%d", g.RelCount(), spec.Rels)
	}
}

func TestUndirectedDoubling(t *testing.T) {
	spec := MustPreset("DBLP", 1000) // undirected: rels are doubled
	ds := Generate(spec, Options{Seed: 2})
	g := memgraph.New()
	g.ApplyAll(ds.Updates)
	// Every edge must have its reverse.
	missing := 0
	g.ForEachRel(func(r *model.Rel) bool {
		found := false
		g.Neighbours(r.Tgt, model.Outgoing, func(rr *model.Rel, nb model.NodeID) bool {
			if nb == r.Src {
				found = true
				return false
			}
			return true
		})
		if !found {
			missing++
		}
		return true
	})
	if missing > 0 {
		t.Errorf("%d directed edges missing their reverse", missing)
	}
}

func TestDeterminismBySeed(t *testing.T) {
	spec := MustPreset("WikiTalk", 2000)
	a := Generate(spec, Options{Seed: 7})
	b := Generate(spec, Options{Seed: 7})
	if len(a.Updates) != len(b.Updates) {
		t.Fatal("length differs")
	}
	for i := range a.Updates {
		if a.Updates[i].String() != b.Updates[i].String() {
			t.Fatalf("update %d differs", i)
		}
	}
	c := Generate(spec, Options{Seed: 8})
	same := true
	for i := range a.Updates {
		if i < len(c.Updates) && a.Updates[i].String() != c.Updates[i].String() {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds must differ")
	}
}

func TestRelWeightProperty(t *testing.T) {
	spec := MustPreset("DBLP", 2000)
	ds := Generate(spec, Options{Seed: 3, RelWeightProp: "w"})
	for _, u := range ds.Updates {
		if u.Kind == model.OpAddRel {
			if _, ok := u.SetProps["w"]; !ok {
				t.Fatal("rel missing weight property")
			}
		}
	}
}

func TestSkewProducesHeavyTail(t *testing.T) {
	spec := MustPreset("Orkut", 2000) // heavy-tailed social network
	ds := Generate(spec, Options{Seed: 4})
	g := memgraph.New()
	g.ApplyAll(ds.Updates)
	maxDeg, sum := 0, 0
	g.ForEachNode(func(n *model.Node) bool {
		d := len(g.Out(n.ID)) + len(g.In(n.ID))
		sum += d
		if d > maxDeg {
			maxDeg = d
		}
		return true
	})
	avg := float64(sum) / float64(g.NodeCount())
	if float64(maxDeg) < 5*avg {
		t.Errorf("max degree %d not heavy-tailed vs avg %.1f", maxDeg, avg)
	}
}

func TestPropertyUpdateChain(t *testing.T) {
	spec := MustPreset("DBLP", 5000)
	ds := Generate(spec, Options{Seed: 5})
	chain := ds.PropertyUpdateChain(4)
	if len(chain) != 4*len(ds.RelIDs) {
		t.Fatalf("chain length %d, want %d", len(chain), 4*len(ds.RelIDs))
	}
	if !monotone(chain) {
		t.Fatal("chain not monotone")
	}
	g := memgraph.New()
	g.ApplyAll(ds.Updates)
	if err := g.ApplyAll(chain); err != nil {
		t.Fatalf("chain does not apply: %v", err)
	}
	// Every rel now carries all four properties.
	g.ForEachRel(func(r *model.Rel) bool {
		for _, k := range []string{"p0", "p1", "p2", "p3"} {
			if _, ok := r.Props[k]; !ok {
				t.Errorf("rel %d missing %s", r.ID, k)
				return false
			}
		}
		return true
	})
}

// monotone reports the ordering constraint of Sec 3: timestamps never
// decrease along the stream.
func monotone(us []model.Update) bool {
	return sort.SliceIsSorted(us, func(i, j int) bool { return us[i].TS < us[j].TS })
}

// Names returns the preset dataset names in Table 3 order.
func Names() []string {
	out := make([]string, len(presets))
	for i, p := range presets {
		out[i] = p.Name
	}
	return out
}
