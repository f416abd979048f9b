package cypher

import (
	"context"
	"expvar"
	"fmt"
	"slices"

	"aion/internal/algo"
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
		out := &Result{Columns: slices.Clone(c.Yield)}
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

// scalars is a row of scalar values.
func scalars(vs ...model.Value) []Val {
	row := make([]Val, len(vs))
	for i, v := range vs {
		row[i] = ScalarVal(v)
	}
	return row
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
	e.Register("aion.temporal.earliestArrival", procEarliestArrival)
	e.Register("aion.temporal.latestDeparture", procLatestDeparture)
	registerIncremental(e)
	registerGDS(e)
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

// procStats: aion.stats() -> one (name, value) row per key of the system's
// metrics registry, in key order; value is the entry's JSON.
func procStats(ctx context.Context, e *Engine, args []model.Value) (*Result, error) {
	res := &Result{Columns: []string{"name", "value"}}
	e.Sys.Metrics.Do(func(kv expvar.KeyValue) {
		res.Rows = append(res.Rows, []Val{ScalarVal(model.StringValue(kv.Key)), ScalarVal(model.StringValue(kv.Value.String()))})
	})
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
