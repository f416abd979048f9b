package csr

import (
	"testing"

	"aion/internal/memgraph"
	"aion/internal/model"
)

func buildGraph(t *testing.T, n int, edges [][2]int) *memgraph.Graph {
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

func TestEmptyGraph(t *testing.T) {
	c := Build(memgraph.New())
	if c.N != 0 || len(c.OutTargets) != 0 {
		t.Errorf("empty projection: N=%d E=%d", c.N, len(c.OutTargets))
	}
}

func TestOffsetsAreMonotone(t *testing.T) {
	g := buildGraph(t, 10, [][2]int{{0, 1}, {0, 2}, {3, 4}, {9, 0}, {9, 1}, {9, 2}})
	c := Build(g)
	for i := 0; i < c.N; i++ {
		if c.OutOffsets[i] > c.OutOffsets[i+1] || c.InOffsets[i] > c.InOffsets[i+1] {
			t.Fatalf("offsets not monotone at %d", i)
		}
	}
	if c.OutOffsets[c.N] != int64(len(c.OutTargets)) {
		t.Error("final offset must equal target count")
	}
}

func TestAdjacencyMirrorsGraph(t *testing.T) {
	edges := [][2]int{{0, 1}, {1, 2}, {2, 0}, {2, 1}}
	g := buildGraph(t, 3, edges)
	c := Build(g)
	// Every graph edge appears exactly once in the CSR, both directions.
	outCount := map[[2]int32]int{}
	for i := int32(0); i < int32(c.N); i++ {
		for _, tgt := range c.Out(i) {
			outCount[[2]int32{i, tgt}]++
		}
	}
	for _, e := range edges {
		s := c.Dense.ToDense[model.NodeID(e[0])]
		x := c.Dense.ToDense[model.NodeID(e[1])]
		if outCount[[2]int32{s, x}] != 1 {
			t.Errorf("edge %v missing or duplicated", e)
		}
	}
	// In-adjacency consistency: sum of in-degrees == edges.
	var inTotal int64
	for i := int32(0); i < int32(c.N); i++ {
		inTotal += int64(len(c.In(i)))
	}
	if inTotal != int64(len(edges)) {
		t.Errorf("in-degree total = %d", inTotal)
	}
}
