package cypher

import (
	"cmp"
	"math"
	"slices"

	"aion/internal/algo"
	"aion/internal/csr"
	"aion/internal/memgraph"
	"aion/internal/model"
)

// GDS-style analytics procedures (Sec 5.1: "Aion allows the creation of
// static CSRs, known as graph projections, to exploit the efficient
// parallel versions of the GDS library's algorithms"). Each procedure
// materializes the snapshot at the requested timestamp, runs the algorithm
// on it — PageRank and triangle counting on its CSR projection — and
// streams the result rows.

// atSnapshot is the table entry of a GDS procedure of arity arguments whose
// argument at is the snapshot's timestamp: run adds the rows of the graph
// there.
func atSnapshot(arity, at int, columns []string, run func(c *Call, g *memgraph.Graph)) Proc {
	return Proc{arity, []int{at}, columns, func(c *Call) error {
		g, err := c.E.Sys.Aion.GraphAtContext(c.Ctx, c.ts(at))
		if err == nil {
			run(c, g)
		}
		return err
	}}
}

// gdsPageRank: rows sorted by rank descending, the first topK of them when
// topK is positive.
func gdsPageRank(c *Call, g *memgraph.Graph) {
	p := csr.Build(g)
	ranks, _ := algo.PageRank(p, algo.PageRankOptions{})
	type nr struct {
		id   model.NodeID
		rank float64
	}
	rows := make([]nr, 0, p.N)
	for i, sid := range p.Dense.ToSparse {
		rows = append(rows, nr{sid, ranks[i]})
	}
	slices.SortFunc(rows, func(a, b nr) int { return cmp.Or(cmp.Compare(b.rank, a.rank), cmp.Compare(a.id, b.id)) })
	if k := int(c.Args[1].Int()); k > 0 && k < len(rows) {
		rows = rows[:k]
	}
	for _, r := range rows {
		c.Add(scalars(model.IntValue(int64(r.id)), model.FloatValue(r.rank))...)
	}
}

// gdsWCC: rows sorted by size descending.
func gdsWCC(c *Call, g *memgraph.Graph) {
	sizes := map[int32]int64{}
	for _, comp := range algo.WCC(g) {
		if comp >= 0 {
			sizes[comp]++
		}
	}
	type cs struct {
		id   int32
		size int64
	}
	rows := make([]cs, 0, len(sizes))
	for id, n := range sizes {
		rows = append(rows, cs{id, n})
	}
	slices.SortFunc(rows, func(a, b cs) int { return cmp.Or(cmp.Compare(b.size, a.size), cmp.Compare(a.id, b.id)) })
	for _, r := range rows {
		c.Add(scalars(model.IntValue(int64(r.id)), model.IntValue(r.size))...)
	}
}

func gdsTriangles(c *Call, g *memgraph.Graph) {
	c.Add(scalars(model.IntValue(algo.TriangleCount(csr.Build(g))))...)
}

// gdsBFS: a row for each node reachable from src.
func gdsBFS(c *Call, g *memgraph.Graph) {
	for id, l := range algo.BFS(g, model.NodeID(c.Args[0].Int())) {
		if l != algo.Unreachable {
			c.Add(scalars(model.IntValue(int64(id)), model.IntValue(int64(l)))...)
		}
	}
}

// gdsSSSP: a row for each node reachable from src.
func gdsSSSP(c *Call, g *memgraph.Graph) {
	for id, d := range algo.SSSP(g, model.NodeID(c.Args[0].Int()), c.Args[2].Str()) {
		if !math.IsInf(d, 1) {
			c.Add(scalars(model.IntValue(int64(id)), model.FloatValue(d))...)
		}
	}
}

func gdsLCC(c *Call, g *memgraph.Graph) {
	c.Add(scalars(model.FloatValue(algo.LocalClusteringCoefficient(g, model.NodeID(c.Args[0].Int()))))...)
}
