package algo

import (
	"math"
	"math/rand"
	"testing"

	"aion/internal/csr"
	"aion/internal/memgraph"
	"aion/internal/model"
)

// buildGraph constructs a snapshot from (src, tgt) pairs over n nodes.
func buildGraph(t testing.TB, n int, edges [][2]int) *memgraph.Graph {
	t.Helper()
	g := memgraph.New()
	ts := model.Timestamp(1)
	for i := 0; i < n; i++ {
		if err := g.Apply(model.AddNode(ts, model.NodeID(i), nil, nil)); err != nil {
			t.Fatal(err)
		}
		ts++
	}
	for i, e := range edges {
		if err := g.Apply(model.AddRel(ts, model.RelID(i), model.NodeID(e[0]), model.NodeID(e[1]), "R", nil)); err != nil {
			t.Fatal(err)
		}
		ts++
	}
	return g
}

func TestBFSLine(t *testing.T) {
	g := buildGraph(t, 5, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	levels := BFS(g, 0)
	want := []int32{0, 1, 2, 3, Unreachable}
	for i, w := range want {
		if levels[i] != w {
			t.Errorf("level[%d] = %d, want %d", i, levels[i], w)
		}
	}
	// Unknown source: everything unreachable.
	levels = BFS(g, 99)
	for i := range levels {
		if levels[i] != Unreachable {
			t.Errorf("unknown source reached %d", i)
		}
	}
}

func TestBFSDirected(t *testing.T) {
	g := buildGraph(t, 3, [][2]int{{1, 0}, {1, 2}})
	levels := BFS(g, 0)
	if levels[1] != Unreachable || levels[2] != Unreachable {
		t.Error("BFS must follow edge direction")
	}
}

func TestSSSPWeighted(t *testing.T) {
	g := buildGraph(t, 4, [][2]int{{0, 1}, {1, 3}, {0, 2}, {2, 3}})
	// Weight the 0->1->3 path cheap and 0->2->3 expensive.
	g.Apply(model.UpdateRel(100, 0, 0, 1, model.Properties{"w": model.FloatValue(1)}, nil))
	g.Apply(model.UpdateRel(101, 1, 1, 3, model.Properties{"w": model.FloatValue(1)}, nil))
	g.Apply(model.UpdateRel(102, 2, 0, 2, model.Properties{"w": model.FloatValue(5)}, nil))
	g.Apply(model.UpdateRel(103, 3, 2, 3, model.Properties{"w": model.FloatValue(5)}, nil))
	dist := SSSP(g, 0, "w")
	if dist[3] != 2 {
		t.Errorf("dist[3] = %v, want 2", dist[3])
	}
	if dist[2] != 5 {
		t.Errorf("dist[2] = %v", dist[2])
	}
	// Default weight 1 when property missing.
	g2 := buildGraph(t, 3, [][2]int{{0, 1}, {1, 2}})
	d2 := SSSP(g2, 0, "w")
	if d2[2] != 2 {
		t.Errorf("unweighted dist = %v", d2[2])
	}
	if !math.IsInf(SSSP(g2, 0, "w")[0]+0, 0) && d2[0] != 0 {
		t.Errorf("source dist = %v", d2[0])
	}
}

func TestPageRankProperties(t *testing.T) {
	// Star: everyone points at node 0, which should dominate.
	edges := [][2]int{}
	for i := 1; i < 20; i++ {
		edges = append(edges, [2]int{i, 0})
	}
	g := buildGraph(t, 20, edges)
	c := csr.Build(g)
	ranks, iters := PageRank(c, PageRankOptions{Epsilon: 1e-10, MaxIter: 200})
	if iters == 0 {
		t.Fatal("no iterations")
	}
	var sum float64
	for _, r := range ranks {
		sum += r
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("ranks must sum to 1, got %v", sum)
	}
	hub := c.Dense.ToDense[0]
	for i, r := range ranks {
		if int32(i) != hub && r >= ranks[hub] {
			t.Errorf("hub must dominate: ranks[%d]=%v >= %v", i, r, ranks[hub])
		}
	}
}

func TestPageRankWarmStartConverges(t *testing.T) {
	edges := [][2]int{}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 400; i++ {
		edges = append(edges, [2]int{rng.Intn(100), rng.Intn(100)})
	}
	g := buildGraph(t, 100, edges)
	c := csr.Build(g)
	cold, coldIters := PageRank(c, PageRankOptions{Epsilon: 1e-8, MaxIter: 500})
	warm, warmIters := pageRankFrom(c, append([]float64(nil), cold...), PageRankOptions{Epsilon: 1e-8, MaxIter: 500})
	if warmIters >= coldIters {
		t.Errorf("warm start (%d iters) must beat cold start (%d)", warmIters, coldIters)
	}
	for i := range cold {
		if math.Abs(cold[i]-warm[i]) > 1e-6 {
			t.Fatalf("warm result differs at %d", i)
		}
	}
}

func TestWCC(t *testing.T) {
	g := buildGraph(t, 6, [][2]int{{0, 1}, {1, 2}, {3, 4}})
	comp := WCC(g)
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Error("0,1,2 must share a component")
	}
	if comp[3] != comp[4] {
		t.Error("3,4 must share a component")
	}
	if comp[0] == comp[3] || comp[0] == comp[5] || comp[3] == comp[5] {
		t.Error("distinct components must differ")
	}
	// Deleted nodes get -1.
	g.Apply(model.DeleteNode(100, 5))
	comp = WCC(g)
	if comp[5] != -1 {
		t.Error("absent node component")
	}
}

func TestTriangleCount(t *testing.T) {
	// A triangle plus a dangling edge.
	g := buildGraph(t, 4, [][2]int{{0, 1}, {1, 2}, {2, 0}, {2, 3}})
	c := csr.Build(g)
	if n := TriangleCount(c); n != 1 {
		t.Errorf("triangles = %d, want 1", n)
	}
	// Two triangles sharing an edge.
	g2 := buildGraph(t, 4, [][2]int{{0, 1}, {1, 2}, {2, 0}, {1, 3}, {3, 2}})
	if n := TriangleCount(csr.Build(g2)); n != 2 {
		t.Errorf("triangles = %d, want 2", n)
	}
	// Reciprocal edges must not fabricate triangles.
	g3 := buildGraph(t, 2, [][2]int{{0, 1}, {1, 0}})
	if n := TriangleCount(csr.Build(g3)); n != 0 {
		t.Errorf("triangles = %d, want 0", n)
	}
}

func TestLocalClusteringCoefficient(t *testing.T) {
	// Node 0's neighbours {1,2,3}; 1-2 connected: 1 link of 3 possible.
	g := buildGraph(t, 4, [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}})
	lcc := LocalClusteringCoefficient(g, 0)
	if math.Abs(lcc-1.0/3) > 1e-9 {
		t.Errorf("lcc = %v, want 1/3", lcc)
	}
	if LocalClusteringCoefficient(g, 3) != 0 {
		t.Error("degree-1 node lcc must be 0")
	}
	// Node 0's neighbours {1,2}, linked both ways or twice one way: the
	// pair counts once, so the coefficient is 1.
	for name, link := range map[string][][2]int{"reciprocal": {{1, 2}, {2, 1}}, "parallel": {{1, 2}, {1, 2}}} {
		g := buildGraph(t, 3, append([][2]int{{0, 1}, {0, 2}}, link...))
		if lcc := LocalClusteringCoefficient(g, 0); lcc != 1 {
			t.Errorf("%s link: lcc = %v, want 1", name, lcc)
		}
	}
}

func TestCSRStructure(t *testing.T) {
	g := buildGraph(t, 4, [][2]int{{0, 1}, {0, 2}, {1, 2}})
	g.Apply(model.DeleteNode(100, 3))
	c := csr.Build(g)
	if c.N != 3 {
		t.Fatalf("dense N = %d", c.N)
	}
	d0 := c.Dense.ToDense[0]
	if c.OutDegree(d0) != 2 {
		t.Errorf("out degree of 0 = %d", c.OutDegree(d0))
	}
	d2 := c.Dense.ToDense[2]
	if got := len(c.In(d2)); got != 2 {
		t.Errorf("in degree of 2 = %d", got)
	}
	if len(c.OutTargets) != 3 {
		t.Errorf("edges = %d", len(c.OutTargets))
	}
}

// TestCSRParallelMatchesSerial: a projection big enough to fill its
// adjacency on several goroutines holds, for every node, exactly the
// graph's own out- and in-neighbours, in the graph's order.
func TestCSRParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	edges := [][2]int{}
	for i := 0; i < 20000; i++ {
		edges = append(edges, [2]int{rng.Intn(3000), rng.Intn(3000)})
	}
	g := buildGraph(t, 3000, edges)
	c := csr.Build(g)
	if c.N != 3000 || len(c.OutTargets) != len(edges) || len(c.InTargets) != len(edges) {
		t.Fatalf("shape: N=%d out=%d in=%d", c.N, len(c.OutTargets), len(c.InTargets))
	}
	for i, sid := range c.Dense.ToSparse {
		d := int32(i)
		out, in := c.Out(d), c.In(d)
		if len(out) != len(g.Out(sid)) || len(in) != len(g.In(sid)) {
			t.Fatalf("node %d: degrees %d/%d, the graph's %d/%d", sid, len(out), len(in), len(g.Out(sid)), len(g.In(sid)))
		}
		for k, rid := range g.Out(sid) {
			if out[k] != c.Dense.ToDense[g.Rel(rid).Tgt] {
				t.Fatalf("node %d: out-neighbour %d differs from the graph's", sid, k)
			}
		}
		for k, rid := range g.In(sid) {
			if in[k] != c.Dense.ToDense[g.Rel(rid).Src] {
				t.Fatalf("node %d: in-neighbour %d differs from the graph's", sid, k)
			}
		}
	}
}

func TestEmptyGraphAlgorithms(t *testing.T) {
	g := memgraph.New()
	if levels := BFS(g, 0); len(levels) != 0 {
		t.Error("BFS on empty graph")
	}
	if comp := WCC(g); len(comp) != 0 {
		t.Error("WCC on empty graph")
	}
	c := csr.Build(g)
	if ranks, _ := PageRank(c, PageRankOptions{}); ranks != nil {
		t.Error("PageRank on empty graph must return nil")
	}
	if n := TriangleCount(c); n != 0 {
		t.Error("triangles on empty graph")
	}
	if ranks, iters := PageRankDynamic(g, nil, PageRankOptions{}); len(ranks) != 0 || iters != 0 {
		t.Error("dynamic PageRank on empty graph")
	}
}

func TestPageRankDynamicMatchesCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	edges := [][2]int{}
	for i := 0; i < 500; i++ {
		edges = append(edges, [2]int{rng.Intn(80), rng.Intn(80)})
	}
	g := buildGraph(t, 80, edges)
	opts := PageRankOptions{Epsilon: 1e-10, MaxIter: 500}
	viaCSR, _ := PageRank(csr.Build(g), opts)
	viaDyn, _ := PageRankDynamic(g, nil, opts)
	c := csr.Build(g)
	for i, sid := range c.Dense.ToSparse {
		if math.Abs(viaCSR[i]-viaDyn[sid]) > 1e-6 {
			t.Fatalf("rank mismatch at node %d: %v vs %v", sid, viaCSR[i], viaDyn[sid])
		}
	}
}
