package cypher

import (
	"context"
	"math"
	"sort"

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

// cancelStride is how many result rows pass between cooperative ctx checks
// in the row-assembly loops below: the projections and algorithms bound
// their own work, but result sets are O(nodes) and must still observe a
// deadline that fires mid-assembly.
const cancelStride = 1024

// strided is the row loops' cooperative check: ctx's error on every
// cancelStride-th i, nil between.
func strided(ctx context.Context, i int) error {
	if i%cancelStride != 0 {
		return nil
	}
	return ctx.Err()
}

// atSnapshot checks that the procedure name got n arguments and returns the
// graph at the timestamp args[at].
func atSnapshot(ctx context.Context, e *Engine, args []model.Value, n int, name string, at int) (*memgraph.Graph, error) {
	if err := argN(args, n, name); err != nil {
		return nil, err
	}
	return e.Sys.Aion.GraphAtContext(ctx, model.Timestamp(args[at].Int()))
}

func registerGDS(e *Engine) {
	e.Register("aion.gds.pagerank", procGDSPageRank)
	e.Register("aion.gds.wcc", procGDSWCC)
	e.Register("aion.gds.triangleCount", procGDSTriangles)
	e.Register("aion.gds.bfs", procGDSBFS)
	e.Register("aion.gds.sssp", procGDSSSSP)
	e.Register("aion.gds.lcc", procGDSLCC)
}

// procGDSPageRank: aion.gds.pagerank(ts, topK) -> (node, rank) sorted by
// rank descending.
func procGDSPageRank(ctx context.Context, e *Engine, args []model.Value) (*Result, error) {
	g, err := atSnapshot(ctx, e, args, 2, "aion.gds.pagerank", 0)
	if err != nil {
		return nil, err
	}
	c := csr.Build(g)
	ranks, _ := algo.PageRank(c, algo.PageRankOptions{})
	type nr struct {
		id   model.NodeID
		rank float64
	}
	rows := make([]nr, 0, c.N)
	for i, sid := range c.Dense.ToSparse {
		if err := strided(ctx, i); err != nil {
			return nil, err
		}
		rows = append(rows, nr{sid, ranks[i]})
	}
	sort.Slice(rows, func(a, b int) bool {
		if rows[a].rank != rows[b].rank {
			return rows[a].rank > rows[b].rank
		}
		return rows[a].id < rows[b].id
	})
	k := int(args[1].Int())
	if k > 0 && k < len(rows) {
		rows = rows[:k]
	}
	res := &Result{Columns: []string{"node", "rank"}}
	for i, r := range rows {
		if err := strided(ctx, i); err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, scalars(model.IntValue(int64(r.id)), model.FloatValue(r.rank)))
	}
	return res, nil
}

// procGDSWCC: aion.gds.wcc(ts) -> (component, size) sorted by size desc.
func procGDSWCC(ctx context.Context, e *Engine, args []model.Value) (*Result, error) {
	g, err := atSnapshot(ctx, e, args, 1, "aion.gds.wcc", 0)
	if err != nil {
		return nil, err
	}
	comp := algo.WCC(g)
	sizes := map[int32]int64{}
	for i, c := range comp {
		if err := strided(ctx, i); err != nil {
			return nil, err
		}
		if c >= 0 {
			sizes[c]++
		}
	}
	type cs struct {
		id   int32
		size int64
	}
	var rows []cs
	for id, n := range sizes {
		if err := strided(ctx, len(rows)+1); err != nil {
			return nil, err
		}
		rows = append(rows, cs{id, n})
	}
	sort.Slice(rows, func(a, b int) bool {
		if rows[a].size != rows[b].size {
			return rows[a].size > rows[b].size
		}
		return rows[a].id < rows[b].id
	})
	res := &Result{Columns: []string{"component", "size"}}
	for i, r := range rows {
		if err := strided(ctx, i); err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, scalars(model.IntValue(int64(r.id)), model.IntValue(r.size)))
	}
	return res, nil
}

// procGDSTriangles: aion.gds.triangleCount(ts) -> (triangles).
func procGDSTriangles(ctx context.Context, e *Engine, args []model.Value) (*Result, error) {
	g, err := atSnapshot(ctx, e, args, 1, "aion.gds.triangleCount", 0)
	if err != nil {
		return nil, err
	}
	n := algo.TriangleCount(csr.Build(g))
	return &Result{Columns: []string{"triangles"}, Rows: [][]Val{scalars(model.IntValue(n))}}, nil
}

// procGDSBFS: aion.gds.bfs(src, ts) -> (node, level) for reachable nodes.
func procGDSBFS(ctx context.Context, e *Engine, args []model.Value) (*Result, error) {
	g, err := atSnapshot(ctx, e, args, 2, "aion.gds.bfs", 1)
	if err != nil {
		return nil, err
	}
	levels := algo.BFS(g, model.NodeID(args[0].Int()))
	res := &Result{Columns: []string{"node", "level"}}
	for id, l := range levels {
		if err := strided(ctx, id); err != nil {
			return nil, err
		}
		if l != algo.Unreachable {
			res.Rows = append(res.Rows, scalars(model.IntValue(int64(id)), model.IntValue(int64(l))))
		}
	}
	return res, nil
}

// procGDSSSSP: aion.gds.sssp(src, ts, weightProp) -> (node, distance).
func procGDSSSSP(ctx context.Context, e *Engine, args []model.Value) (*Result, error) {
	g, err := atSnapshot(ctx, e, args, 3, "aion.gds.sssp", 1)
	if err != nil {
		return nil, err
	}
	dist := algo.SSSP(g, model.NodeID(args[0].Int()), args[2].Str())
	res := &Result{Columns: []string{"node", "distance"}}
	for id, d := range dist {
		if err := strided(ctx, id); err != nil {
			return nil, err
		}
		if !math.IsInf(d, 1) {
			res.Rows = append(res.Rows, scalars(model.IntValue(int64(id)), model.FloatValue(d)))
		}
	}
	return res, nil
}

// procGDSLCC: aion.gds.lcc(nodeId, ts) -> (coefficient).
func procGDSLCC(ctx context.Context, e *Engine, args []model.Value) (*Result, error) {
	g, err := atSnapshot(ctx, e, args, 2, "aion.gds.lcc", 1)
	if err != nil {
		return nil, err
	}
	lcc := algo.LocalClusteringCoefficient(g, model.NodeID(args[0].Int()))
	return &Result{Columns: []string{"coefficient"}, Rows: [][]Val{scalars(model.FloatValue(lcc))}}, nil
}
