package cypher

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"aion/internal/algo"
	"aion/internal/incremental"
	"aion/internal/model"
)

// Proc is a temporal procedure callable from Cypher (Sec 5.1: "Aion wraps
// the functionality exposed in Table 1 with temporal procedures"). Args are
// already-evaluated scalars. ctx carries the query's deadline; long-running
// procedures must observe it (the built-ins check it between snapshot steps
// and pass it through to the store APIs).
type Proc func(ctx context.Context, e *Engine, args []model.Value) (*Result, error)

func (e *Engine) execCall(ctx *execCtx, st *Statement) (*Result, error) {
	c := st.Call
	proc, ok := e.procs[c.Name]
	if !ok {
		return nil, fmt.Errorf("cypher: unknown procedure %q", c.Name)
	}
	args := make([]model.Value, len(c.Args))
	for i, ex := range c.Args {
		v, err := ctx.evalScalar(bindings{}, ex)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	res, err := proc(ctx.c, e, args)
	if err != nil {
		return nil, err
	}
	if len(c.Yield) > 0 {
		// Project only the yielded columns, in the requested order.
		idx := make([]int, 0, len(c.Yield))
		for _, y := range c.Yield {
			found := -1
			for i, col := range res.Columns {
				if col == y {
					found = i
					break
				}
			}
			if found < 0 {
				return nil, fmt.Errorf("cypher: procedure %s does not yield %q", c.Name, y)
			}
			idx = append(idx, found)
		}
		out := &Result{Columns: c.Yield}
		for _, row := range res.Rows {
			pr := make([]Val, len(idx))
			for i, j := range idx {
				pr[i] = row[j]
			}
			out.Rows = append(out.Rows, pr)
		}
		return out, nil
	}
	return res, nil
}

func argN(args []model.Value, n int, name string) error {
	if len(args) != n {
		return fmt.Errorf("cypher: %s expects %d arguments, got %d", name, n, len(args))
	}
	return nil
}

func dirOf(v model.Value) model.Direction {
	switch v.Str() {
	case "in", "IN", "incoming", "INCOMING":
		return model.Incoming
	case "both", "BOTH":
		return model.Both
	}
	return model.Outgoing
}

// registerBuiltins wires the Table 1 API and the incremental algorithms as
// procedures.
func registerBuiltins(e *Engine) {
	e.Register("aion.node", procNode)
	e.Register("aion.relationship", procRelationship)
	e.Register("aion.relationships", procRelationships)
	e.Register("aion.expand", procExpand)
	e.Register("aion.diff", procDiff)
	e.Register("aion.graph", procGraph)
	e.Register("aion.window", procWindow)
	e.Register("aion.stats", procStats)
	e.Register("aion.incremental.avg", procIncAvg)
	e.Register("aion.incremental.bfs", procIncBFS)
	e.Register("aion.incremental.pagerank", procIncPageRank)
	e.Register("aion.incremental.sssp", procIncSSSP)
	e.Register("aion.incremental.coloring", procIncColoring)
	e.Register("aion.temporal.earliestArrival", procEarliestArrival)
	e.Register("aion.temporal.latestDeparture", procLatestDeparture)
	registerGDS(e)
}

// procIncSSSP: aion.incremental.sssp(src, prop, start, end, step) ->
// (ts, reached, maxDistance): shortest-path state advanced by getDiff.
func procIncSSSP(ctx context.Context, e *Engine, args []model.Value) (*Result, error) {
	if err := argN(args, 5, "aion.incremental.sssp"); err != nil {
		return nil, err
	}
	src := model.NodeID(args[0].Int())
	prop := args[1].Str()
	start, end, step := model.Timestamp(args[2].Int()), model.Timestamp(args[3].Int()), model.Timestamp(args[4].Int())
	if step <= 0 {
		return nil, fmt.Errorf("cypher: step must be positive")
	}
	g, err := e.Sys.Aion.GraphAtContext(ctx, start)
	if err != nil {
		return nil, err
	}
	s := incremental.NewSSSP(g, src, prop)
	res := &Result{Columns: []string{"ts", "reached", "maxDistance"}}
	emit := func(ts model.Timestamp) error {
		reached := 0
		maxD := 0.0
		for i, d := range s.Distances() {
			if i%cancelStride == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			if d < 1e308 {
				reached++
				if d > maxD {
					maxD = d
				}
			}
		}
		res.Rows = append(res.Rows, []Val{
			ScalarVal(model.IntValue(int64(ts))),
			ScalarVal(model.IntValue(int64(reached))),
			ScalarVal(model.FloatValue(maxD)),
		})
		return nil
	}
	if err := emit(start); err != nil {
		return nil, err
	}
	prev := start
	for _, ts := range snapshotTimes(start+step, end, step) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		diff, err := e.Sys.Aion.GetDiffContext(ctx, prev+1, ts+1)
		if err != nil {
			return nil, err
		}
		for _, u := range diff {
			if err := g.Apply(u); err != nil {
				return nil, err
			}
		}
		s.ApplyDiff(g, diff)
		if err := emit(ts); err != nil {
			return nil, err
		}
		prev = ts
	}
	return res, nil
}

// procIncColoring: aion.incremental.coloring(start, end, step) ->
// (ts, colors): greedy colouring repaired incrementally between snapshots.
func procIncColoring(ctx context.Context, e *Engine, args []model.Value) (*Result, error) {
	if err := argN(args, 3, "aion.incremental.coloring"); err != nil {
		return nil, err
	}
	start, end, step := model.Timestamp(args[0].Int()), model.Timestamp(args[1].Int()), model.Timestamp(args[2].Int())
	if step <= 0 {
		return nil, fmt.Errorf("cypher: step must be positive")
	}
	g, err := e.Sys.Aion.GraphAtContext(ctx, start)
	if err != nil {
		return nil, err
	}
	c := incremental.NewColoring(g)
	res := &Result{Columns: []string{"ts", "colors"}}
	emit := func(ts model.Timestamp) {
		res.Rows = append(res.Rows, []Val{
			ScalarVal(model.IntValue(int64(ts))),
			ScalarVal(model.IntValue(int64(c.NumColors()))),
		})
	}
	emit(start)
	prev := start
	for _, ts := range snapshotTimes(start+step, end, step) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		diff, err := e.Sys.Aion.GetDiffContext(ctx, prev+1, ts+1)
		if err != nil {
			return nil, err
		}
		for _, u := range diff {
			if err := g.Apply(u); err != nil {
				return nil, err
			}
		}
		c.ApplyDiff(g, diff)
		emit(ts)
		prev = ts
	}
	return res, nil
}

// procNode: aion.node(id, start, end) -> (node, validFrom, validTo).
func procNode(ctx context.Context, e *Engine, args []model.Value) (*Result, error) {
	if err := argN(args, 3, "aion.node"); err != nil {
		return nil, err
	}
	ns, err := e.Sys.Aion.GetNodeContext(ctx, model.NodeID(args[0].Int()),
		model.Timestamp(args[1].Int()), model.Timestamp(args[2].Int()))
	if err != nil {
		return nil, err
	}
	res := &Result{Columns: []string{"node", "validFrom", "validTo"}}
	for i, n := range ns {
		if i%cancelStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		res.Rows = append(res.Rows, []Val{NodeVal(n),
			ScalarVal(model.IntValue(int64(n.Valid.Start))),
			ScalarVal(model.IntValue(int64(n.Valid.End)))})
	}
	return res, nil
}

// procRelationship: aion.relationship(id, start, end).
func procRelationship(ctx context.Context, e *Engine, args []model.Value) (*Result, error) {
	if err := argN(args, 3, "aion.relationship"); err != nil {
		return nil, err
	}
	rs, err := e.Sys.Aion.GetRelationshipContext(ctx, model.RelID(args[0].Int()),
		model.Timestamp(args[1].Int()), model.Timestamp(args[2].Int()))
	if err != nil {
		return nil, err
	}
	res := &Result{Columns: []string{"rel", "validFrom", "validTo"}}
	for i, r := range rs {
		if i%cancelStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		res.Rows = append(res.Rows, []Val{RelVal(r),
			ScalarVal(model.IntValue(int64(r.Valid.Start))),
			ScalarVal(model.IntValue(int64(r.Valid.End)))})
	}
	return res, nil
}

// procRelationships: aion.relationships(nodeId, dir, start, end).
func procRelationships(ctx context.Context, e *Engine, args []model.Value) (*Result, error) {
	if err := argN(args, 4, "aion.relationships"); err != nil {
		return nil, err
	}
	hists, err := e.Sys.Aion.GetRelationshipsContext(ctx, model.NodeID(args[0].Int()), dirOf(args[1]),
		model.Timestamp(args[2].Int()), model.Timestamp(args[3].Int()))
	if err != nil {
		return nil, err
	}
	res := &Result{Columns: []string{"rel", "validFrom", "validTo"}}
	scanned := 0
	for _, hist := range hists {
		for _, r := range hist {
			if scanned++; scanned%cancelStride == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			res.Rows = append(res.Rows, []Val{RelVal(r),
				ScalarVal(model.IntValue(int64(r.Valid.Start))),
				ScalarVal(model.IntValue(int64(r.Valid.End)))})
		}
	}
	return res, nil
}

// procExpand: aion.expand(nodeId, dir, hops, ts) -> (hop, node).
func procExpand(ctx context.Context, e *Engine, args []model.Value) (*Result, error) {
	if err := argN(args, 4, "aion.expand"); err != nil {
		return nil, err
	}
	hops, err := e.Sys.Aion.ExpandContext(ctx, model.NodeID(args[0].Int()), dirOf(args[1]),
		int(args[2].Int()), model.Timestamp(args[3].Int()))
	if err != nil {
		return nil, err
	}
	res := &Result{Columns: []string{"hop", "node"}}
	scanned := 0
	for h, ns := range hops {
		for _, n := range ns {
			if scanned++; scanned%cancelStride == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			res.Rows = append(res.Rows, []Val{
				ScalarVal(model.IntValue(int64(h + 1))), NodeVal(n)})
		}
	}
	return res, nil
}

// procDiff: aion.diff(start, end) -> (ts, op, entity, id).
func procDiff(ctx context.Context, e *Engine, args []model.Value) (*Result, error) {
	if err := argN(args, 2, "aion.diff"); err != nil {
		return nil, err
	}
	diff, err := e.Sys.Aion.GetDiffContext(ctx, model.Timestamp(args[0].Int()), model.Timestamp(args[1].Int()))
	if err != nil {
		return nil, err
	}
	res := &Result{Columns: []string{"ts", "op", "entity", "id"}}
	for i, u := range diff {
		if i%cancelStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		entity, id := "node", int64(u.NodeID)
		if !u.Kind.IsNodeOp() {
			entity, id = "relationship", int64(u.RelID)
		}
		res.Rows = append(res.Rows, []Val{
			ScalarVal(model.IntValue(int64(u.TS))),
			ScalarVal(model.StringValue(u.Kind.String())),
			ScalarVal(model.StringValue(entity)),
			ScalarVal(model.IntValue(id)),
		})
	}
	return res, nil
}

// procGraph: aion.graph(ts) -> (nodes, rels); materializes a snapshot and
// stores it in the GraphStore for subsequent queries.
func procGraph(ctx context.Context, e *Engine, args []model.Value) (*Result, error) {
	if err := argN(args, 1, "aion.graph"); err != nil {
		return nil, err
	}
	g, err := e.Sys.Aion.GraphAtContext(ctx, model.Timestamp(args[0].Int()))
	if err != nil {
		return nil, err
	}
	e.Sys.Aion.TimeStore().GraphStore().Put(g)
	return &Result{
		Columns: []string{"nodes", "rels"},
		Rows: [][]Val{{
			ScalarVal(model.IntValue(int64(g.NodeCount()))),
			ScalarVal(model.IntValue(int64(g.RelCount()))),
		}},
	}, nil
}

// procWindow: aion.window(start, end) -> (nodes, rels).
func procWindow(ctx context.Context, e *Engine, args []model.Value) (*Result, error) {
	if err := argN(args, 2, "aion.window"); err != nil {
		return nil, err
	}
	g, err := e.Sys.Aion.GetWindowContext(ctx, model.Timestamp(args[0].Int()), model.Timestamp(args[1].Int()))
	if err != nil {
		return nil, err
	}
	return &Result{
		Columns: []string{"nodes", "rels"},
		Rows: [][]Val{{
			ScalarVal(model.IntValue(int64(g.NodeCount()))),
			ScalarVal(model.IntValue(int64(g.RelCount()))),
		}},
	}, nil
}

// procStats: aion.stats() -> planner statistics.
func procStats(ctx context.Context, e *Engine, args []model.Value) (*Result, error) {
	st := e.Sys.Aion.Stats()
	lineage, timeStore := e.Sys.Aion.PlannerDecisions()
	return &Result{
		Columns: []string{"nodes", "rels", "avgDegree", "lineageQueries", "timestoreQueries"},
		Rows: [][]Val{{
			ScalarVal(model.IntValue(st.Nodes())),
			ScalarVal(model.IntValue(st.Rels())),
			ScalarVal(model.FloatValue(st.AvgDegree())),
			ScalarVal(model.IntValue(lineage)),
			ScalarVal(model.IntValue(timeStore)),
		}},
	}, nil
}

// snapshotTimes lists the timestamps start, start+step, ..., end.
func snapshotTimes(start, end, step model.Timestamp) []model.Timestamp {
	var out []model.Timestamp
	for ts := start; ts <= end; ts += step {
		out = append(out, ts)
	}
	return out
}

// procIncAvg: aion.incremental.avg(prop, start, end, step) -> (ts, avg,
// count). The aggregate is seeded at start and advanced with getDiff
// between consecutive snapshots.
func procIncAvg(ctx context.Context, e *Engine, args []model.Value) (*Result, error) {
	if err := argN(args, 4, "aion.incremental.avg"); err != nil {
		return nil, err
	}
	prop := args[0].Str()
	start, end, step := model.Timestamp(args[1].Int()), model.Timestamp(args[2].Int()), model.Timestamp(args[3].Int())
	if step <= 0 {
		return nil, fmt.Errorf("cypher: step must be positive")
	}
	g, err := e.Sys.Aion.GraphAtContext(ctx, start)
	if err != nil {
		return nil, err
	}
	avg := incremental.NewAvg(prop)
	avg.InitFrom(g)
	res := &Result{Columns: []string{"ts", "avg", "count"}}
	emit := func(ts model.Timestamp) {
		res.Rows = append(res.Rows, []Val{
			ScalarVal(model.IntValue(int64(ts))),
			ScalarVal(model.FloatValue(avg.Value())),
			ScalarVal(model.IntValue(avg.Count())),
		})
	}
	emit(start)
	prev := start
	for _, ts := range snapshotTimes(start+step, end, step) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		diff, err := e.Sys.Aion.GetDiffContext(ctx, prev+1, ts+1)
		if err != nil {
			return nil, err
		}
		avg.ApplyDiff(diff)
		emit(ts)
		prev = ts
	}
	return res, nil
}

// procIncBFS: aion.incremental.bfs(src, start, end, step) -> (ts, reached).
func procIncBFS(ctx context.Context, e *Engine, args []model.Value) (*Result, error) {
	if err := argN(args, 4, "aion.incremental.bfs"); err != nil {
		return nil, err
	}
	src := model.NodeID(args[0].Int())
	start, end, step := model.Timestamp(args[1].Int()), model.Timestamp(args[2].Int()), model.Timestamp(args[3].Int())
	if step <= 0 {
		return nil, fmt.Errorf("cypher: step must be positive")
	}
	g, err := e.Sys.Aion.GraphAtContext(ctx, start)
	if err != nil {
		return nil, err
	}
	bfs := incremental.NewBFS(g, src)
	res := &Result{Columns: []string{"ts", "reached"}}
	emit := func(ts model.Timestamp) error {
		reached := 0
		for i, l := range bfs.Levels() {
			if i%cancelStride == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			if l >= 0 {
				reached++
			}
		}
		res.Rows = append(res.Rows, []Val{
			ScalarVal(model.IntValue(int64(ts))),
			ScalarVal(model.IntValue(int64(reached))),
		})
		return nil
	}
	if err := emit(start); err != nil {
		return nil, err
	}
	prev := start
	for _, ts := range snapshotTimes(start+step, end, step) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		diff, err := e.Sys.Aion.GetDiffContext(ctx, prev+1, ts+1)
		if err != nil {
			return nil, err
		}
		for _, u := range diff {
			if err := g.Apply(u); err != nil {
				return nil, err
			}
		}
		bfs.ApplyDiff(g, diff)
		if err := emit(ts); err != nil {
			return nil, err
		}
		prev = ts
	}
	return res, nil
}

// procIncPageRank: aion.incremental.pagerank(start, end, step) ->
// (ts, iterations, topNode, topRank).
func procIncPageRank(ctx context.Context, e *Engine, args []model.Value) (*Result, error) {
	if err := argN(args, 3, "aion.incremental.pagerank"); err != nil {
		return nil, err
	}
	start, end, step := model.Timestamp(args[0].Int()), model.Timestamp(args[1].Int()), model.Timestamp(args[2].Int())
	if step <= 0 {
		return nil, fmt.Errorf("cypher: step must be positive")
	}
	g, err := e.Sys.Aion.GraphAtContext(ctx, start)
	if err != nil {
		return nil, err
	}
	pr := incremental.NewPageRank(algo.PageRankOptions{})
	res := &Result{Columns: []string{"ts", "iterations", "topNode", "topRank"}}
	emit := func(ts model.Timestamp, ranks map[model.NodeID]float64) error {
		var topID model.NodeID = -1
		var topRank float64
		ids := make([]model.NodeID, 0, len(ranks))
		scanned := 0
		for id := range ranks {
			if scanned++; scanned%cancelStride == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for i, id := range ids {
			if i%cancelStride == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			if ranks[id] > topRank {
				topID, topRank = id, ranks[id]
			}
		}
		res.Rows = append(res.Rows, []Val{
			ScalarVal(model.IntValue(int64(ts))),
			ScalarVal(model.IntValue(int64(pr.LastIterations))),
			ScalarVal(model.IntValue(int64(topID))),
			ScalarVal(model.FloatValue(topRank)),
		})
		return nil
	}
	if err := emit(start, pr.Run(g)); err != nil {
		return nil, err
	}
	prev := start
	for _, ts := range snapshotTimes(start+step, end, step) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		diff, err := e.Sys.Aion.GetDiffContext(ctx, prev+1, ts+1)
		if err != nil {
			return nil, err
		}
		for _, u := range diff {
			if err := g.Apply(u); err != nil {
				return nil, err
			}
		}
		if err := emit(ts, pr.Run(g)); err != nil {
			return nil, err
		}
		prev = ts
	}
	return res, nil
}

// procEarliestArrival: aion.temporal.earliestArrival(src, startTime, from,
// to) -> (node, arrival) over the hops of [from, to).
func procEarliestArrival(ctx context.Context, e *Engine, args []model.Value) (*Result, error) {
	return temporalPath(ctx, e, args, "aion.temporal.earliestArrival", "arrival", algo.EarliestArrival)
}

// procLatestDeparture: aion.temporal.latestDeparture(tgt, deadline, from,
// to) -> (node, departure).
func procLatestDeparture(ctx context.Context, e *Engine, args []model.Value) (*Result, error) {
	return temporalPath(ctx, e, args, "aion.temporal.latestDeparture", "departure", algo.LatestDeparture)
}

// temporalPath is the body of the two temporal-path procedures: solve runs
// from node args[0] at time args[1] over the hops of the diff [args[2],
// args[3]), and every node it reaches is a row (node, time) in id order.
func temporalPath(ctx context.Context, e *Engine, args []model.Value, name, column string,
	solve func([]algo.PathHop, model.NodeID, model.Timestamp) (map[model.NodeID]model.Timestamp, map[model.NodeID]algo.PathHop)) (*Result, error) {
	if err := argN(args, 4, name); err != nil {
		return nil, err
	}
	diff, err := e.Sys.Aion.GetDiffContext(ctx, model.Timestamp(args[2].Int()), model.Timestamp(args[3].Int()))
	if err != nil {
		return nil, err
	}
	times, _ := solve(algo.Hops(diff), model.NodeID(args[0].Int()), model.Timestamp(args[1].Int()))
	ids := make([]model.NodeID, 0, len(times))
	for id := range times {
		if len(ids)%cancelStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		ids = append(ids, id)
	}
	slices.Sort(ids)
	res := &Result{Columns: []string{"node", column}}
	for i, id := range ids {
		if i%cancelStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		res.Rows = append(res.Rows, []Val{
			ScalarVal(model.IntValue(int64(id))),
			ScalarVal(model.IntValue(int64(times[id]))),
		})
	}
	return res, nil
}
