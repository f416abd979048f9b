// Package datagen generates the evaluation workloads of Table 3. The
// paper's six real-world graphs (DBLP, WikiTalk, Pokec, LiveJournal,
// DBPedia, Orkut) are substituted with synthetic graphs that match their
// structure — node/relationship ratio, average degree, directedness, and a
// heavy-tailed degree distribution — at a configurable scale factor, since
// the full datasets (up to 234 M relationships) do not fit a test machine.
//
// Temporal enrichment follows the paper's own protocol for its
// non-temporal datasets (Sec 6.1): all relationships are shuffled, assigned
// monotonically increasing timestamps, and consumed in timestamp order,
// with node creation always preceding the creation of incident
// relationships.
package datagen

import (
	"fmt"
	"math/rand"

	"aion/internal/model"
)

// Spec describes a dataset shape.
type Spec struct {
	Name     string
	Domain   string
	Nodes    int
	Rels     int // directed relationship count after undirected doubling
	Directed bool
	// Skew is the Zipf exponent shaping the degree distribution; social
	// networks are given heavier tails.
	Skew float64
	// Multigraph allows repeated (src, tgt) pairs. Matching the paper,
	// only the communication/hyperlink graphs (WikiTalk, DBPedia) contain
	// parallel relationships — which is why Raphtory loads only part of
	// them (Sec 6.2).
	Multigraph bool
	// PaperNodes/PaperRels record the original Table 3 sizes (millions).
	PaperNodes float64
	PaperRels  float64
}

// AvgDegree returns |E| / |V|.
func (s Spec) AvgDegree() float64 {
	if s.Nodes == 0 {
		return 0
	}
	return float64(s.Rels) / float64(s.Nodes)
}

// presets lists the six Table 3 datasets at full scale (counts in units,
// Rels already doubled for the undirected graphs, matching the paper's
// treatment of DBLP and Orkut).
var presets = []Spec{
	{Name: "DBLP", Domain: "citation", Nodes: 300_000, Rels: 2_100_000, Directed: false, Skew: 1.6, PaperNodes: 0.3, PaperRels: 2.1},
	{Name: "WikiTalk", Domain: "communication", Nodes: 1_000_000, Rels: 7_800_000, Directed: true, Skew: 2.0, Multigraph: true, PaperNodes: 1, PaperRels: 7.8},
	{Name: "Pokec", Domain: "social", Nodes: 1_600_000, Rels: 30_000_000, Directed: true, Skew: 1.7, PaperNodes: 1.6, PaperRels: 30},
	{Name: "LiveJournal", Domain: "social", Nodes: 4_800_000, Rels: 69_000_000, Directed: true, Skew: 1.8, PaperNodes: 4.8, PaperRels: 69},
	{Name: "DBPedia", Domain: "hyperlink", Nodes: 18_000_000, Rels: 172_000_000, Directed: true, Skew: 2.1, Multigraph: true, PaperNodes: 18, PaperRels: 172},
	{Name: "Orkut", Domain: "social", Nodes: 3_000_000, Rels: 234_000_000, Directed: false, Skew: 1.5, PaperNodes: 3, PaperRels: 234},
}

// Names returns the preset dataset names in Table 3 order.
func Names() []string {
	out := make([]string, len(presets))
	for i, p := range presets {
		out[i] = p.Name
	}
	return out
}

// Preset returns the named dataset spec scaled down by the given divisor
// (e.g. scale 1000 turns DBLP into 300 nodes / 2100 rels).
func Preset(name string, scale int) (Spec, error) {
	if scale < 1 {
		scale = 1
	}
	for _, p := range presets {
		if p.Name == name {
			p.Nodes = max(p.Nodes/scale, 16)
			p.Rels = max(p.Rels/scale, 32)
			return p, nil
		}
	}
	return Spec{}, fmt.Errorf("datagen: unknown dataset %q", name)
}

// MustPreset is Preset for known-good names; it panics on error.
func MustPreset(name string, scale int) Spec {
	s, err := Preset(name, scale)
	if err != nil {
		panic(err)
	}
	return s
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Dataset is a generated temporal workload.
type Dataset struct {
	Spec    Spec
	Updates []model.Update
	// FirstRelTS is the timestamp of the first relationship insertion.
	FirstRelTS model.Timestamp
	// MaxTS is the timestamp of the final update.
	MaxTS model.Timestamp
	// RelIDs lists the ids of generated relationships (for point-query
	// sampling).
	RelIDs []model.RelID
}

// Options tunes generation.
type Options struct {
	Seed int64
	// RelWeightProp, when set, attaches a float property with this name to
	// every relationship (used by the AVG benchmarks).
	RelWeightProp string
	// NodeLabel labels every node (defaults to the dataset domain).
	NodeLabel string
}

// Generate builds the temporal update stream for a spec.
func Generate(spec Spec, opts Options) *Dataset {
	rng := rand.New(rand.NewSource(opts.Seed))
	label := opts.NodeLabel
	if label == "" {
		label = spec.Domain
	}

	// Endpoint sampling with a heavy-tailed degree distribution.
	zipf := rand.NewZipf(rng, spec.Skew, 8, uint64(spec.Nodes-1))
	sample := func() model.NodeID { return model.NodeID(zipf.Uint64()) }

	// Draw the (undirected) edge population.
	type edge struct{ src, tgt model.NodeID }
	baseRels := spec.Rels
	if !spec.Directed {
		baseRels = spec.Rels / 2
	}
	edges := make([]edge, 0, spec.Rels)
	seen := make(map[edge]bool, baseRels)
	for i := 0; i < baseRels; i++ {
		s, t := sample(), sample()
		for s == t {
			t = sample()
		}
		if !spec.Multigraph {
			// Simple graphs resample duplicates (bounded retries keep
			// generation fast on tiny scales with saturated hubs).
			for retry := 0; retry < 32 && seen[edge{s, t}]; retry++ {
				s, t = sample(), sample()
				for s == t {
					t = sample()
				}
			}
			seen[edge{s, t}] = true
			if !spec.Directed {
				seen[edge{t, s}] = true
			}
		}
		edges = append(edges, edge{s, t})
		if !spec.Directed {
			edges = append(edges, edge{t, s}) // replace undirected with two directed
		}
	}
	// Shuffle relationships, then assign monotone timestamps.
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })

	ds := &Dataset{Spec: spec}
	ts := model.Timestamp(0)
	created := make([]bool, spec.Nodes)
	addNode := func(id model.NodeID) {
		if created[id] {
			return
		}
		created[id] = true
		ts++
		ds.Updates = append(ds.Updates, model.AddNode(ts, id, []string{label}, nil))
	}
	for i, e := range edges {
		addNode(e.src)
		addNode(e.tgt)
		ts++
		if ds.FirstRelTS == 0 {
			ds.FirstRelTS = ts
		}
		var props model.Properties
		if opts.RelWeightProp != "" {
			props = model.Properties{opts.RelWeightProp: model.FloatValue(rng.Float64() * 100)}
		}
		rid := model.RelID(i)
		ds.Updates = append(ds.Updates, model.AddRel(ts, rid, e.src, e.tgt, "LINK", props))
		ds.RelIDs = append(ds.RelIDs, rid)
	}
	// Nodes that never got a relationship are still created, so |V|
	// matches the spec.
	for id := 0; id < spec.Nodes; id++ {
		addNode(model.NodeID(id))
	}
	ds.MaxTS = ts
	return ds
}

// PropertyUpdateChain appends n successive property updates to every
// relationship in the dataset (the Fig 11 workload: "create history chains
// by adding thirty-two new properties at different discrete times").
func (d *Dataset) PropertyUpdateChain(n int) []model.Update {
	relEnds := make(map[model.RelID][2]model.NodeID)
	for _, u := range d.Updates {
		if u.Kind == model.OpAddRel {
			relEnds[u.RelID] = [2]model.NodeID{u.Src, u.Tgt}
		}
	}
	ts := d.MaxTS
	var out []model.Update
	for round := 0; round < n; round++ {
		key := fmt.Sprintf("p%d", round)
		// String payloads give materialized records realistic weight, so
		// the Fig 11 storage/throughput trade-off is visible.
		val := model.StringValue(fmt.Sprintf("value-%d-of-property-chain", round))
		for _, rid := range d.RelIDs {
			ends := relEnds[rid]
			ts++
			out = append(out, model.UpdateRel(ts, rid, ends[0], ends[1],
				model.Properties{key: val}, nil))
		}
	}
	d.MaxTS = ts
	return out
}

// BenchmarkShape is the update stream the frozen benchmark/ loads (its
// genDataset, which nothing can import): the DBLP preset at scale 20, then
// two int-property rounds over every node and one string-property round over
// every second relationship, 202 500 updates in all. The property rounds
// carry timestamp 0: a host transaction stamps them.
func BenchmarkShape(seed int64) []model.Update {
	g := Generate(MustPreset("DBLP", 20), Options{Seed: seed})
	us := g.Updates
	for _, key := range []string{"p0", "p1"} {
		for id := 0; id < g.Spec.Nodes; id++ {
			us = append(us, model.UpdateNode(0, model.NodeID(id), nil, nil,
				model.Properties{key: model.IntValue(int64(id))}, nil))
		}
	}
	for _, u := range g.Updates {
		if u.Kind == model.OpAddRel && u.RelID%2 == 0 {
			us = append(us, model.UpdateRel(0, u.RelID, u.Src, u.Tgt,
				model.Properties{"w": model.StringValue("value-0-of-property-chain")}, nil))
		}
	}
	return us
}
