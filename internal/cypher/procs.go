package cypher

import (
	"cmp"
	"context"
	"expvar"
	"fmt"
	"slices"
	"time"

	"aion/internal/algo"
	"aion/internal/lineagestore"
	"aion/internal/model"
)

// Proc is one entry of the procedure table: a temporal procedure callable
// from Cypher (Sec 5.1: "Aion wraps the functionality exposed in Table 1
// with temporal procedures"). It declares once what every caller must know
// of it: how many arguments it takes, which of them are timestamps it reads
// at (a follower bounds them by its watermark, TimestampArgs), and the
// columns of its rows. Run adds the rows.
type Proc struct {
	Arity   int
	TSArgs  []int
	Columns []string
	Run     func(c *Call) error
}

// Call is one execution of a procedure: the query's ctx, which the body
// hands to the store APIs, the engine, and the arguments, already-evaluated
// scalars of the declared arity.
type Call struct {
	Ctx  context.Context
	E    *Engine
	Args []model.Value
	rows [][]Val
	err  error // the ctx's, once Add found it ended
}

// cancelStride is how many rows Call.Add appends between ctx checks: the
// stores and algorithms bound their own work, but a result set is as large
// as the graph and must still observe a deadline that fires mid-assembly.
const cancelStride = 1024

// Add appends one row, in Columns order, to the call's result. It is the
// procedure's cancellation point: every cancelStride rows it checks the ctx,
// and once the ctx has ended, Add drops every row and the call fails with
// the ctx's error.
func (c *Call) Add(row ...Val) {
	if c.err == nil && len(c.rows)%cancelStride == 0 {
		c.err = c.Ctx.Err()
	}
	if c.err == nil {
		c.rows = append(c.rows, row)
	}
}

// ts reads argument i as a timestamp.
func (c *Call) ts(i int) model.Timestamp { return model.Timestamp(c.Args[i].Int()) }

// builtins is the procedure table: the Table 1 API, the temporal paths, the
// incremental series (Sec 5.2) and the GDS analytics. NewEngine registers
// every entry; each entry's comment gives its signature.
var builtins = map[string]Proc{
	// aion.node(id, start, end) -> (node, validFrom, validTo).
	"aion.node": {3, []int{1, 2}, []string{"node", "validFrom", "validTo"}, procNode},
	// aion.relationship(id, start, end) -> (rel, validFrom, validTo).
	"aion.relationship": {3, []int{1, 2}, []string{"rel", "validFrom", "validTo"}, procRelationship},
	// aion.relationships(nodeId, dir, start, end) -> (rel, validFrom, validTo).
	"aion.relationships": {4, []int{2, 3}, []string{"rel", "validFrom", "validTo"}, procRelationships},
	// aion.expand(nodeId, dir, hops, ts) -> (hop, node).
	"aion.expand": {4, []int{3}, []string{"hop", "node"}, procExpand},
	// aion.diff(start, end) -> (ts, op, entity, id).
	"aion.diff": {2, []int{0, 1}, []string{"ts", "op", "entity", "id"}, procDiff},
	// aion.graph(ts) -> (nodes, rels).
	"aion.graph": {1, []int{0}, []string{"nodes", "rels"}, procGraph},
	// aion.window(start, end) -> (nodes, rels).
	"aion.window": {2, []int{0, 1}, []string{"nodes", "rels"}, procWindow},
	// aion.stats() -> (name, value).
	"aion.stats": {0, nil, []string{"name", "value"}, procStats},
	// aion.temporal.earliestArrival(src, startTime, from, to) -> (node, arrival).
	"aion.temporal.earliestArrival": temporalPath("arrival", algo.EarliestArrival),
	// aion.temporal.latestDeparture(tgt, deadline, from, to) -> (node, departure).
	"aion.temporal.latestDeparture": temporalPath("departure", algo.LatestDeparture),

	// aion.incremental.avg(prop, start, end, step) -> (ts, avg, count).
	"aion.incremental.avg": series(4, []string{"avg", "count"}, seedAvg),
	// aion.incremental.bfs(src, start, end, step) -> (ts, reached).
	"aion.incremental.bfs": series(4, []string{"reached"}, seedBFS),
	// aion.incremental.sssp(src, prop, start, end, step) -> (ts, reached, maxDistance).
	"aion.incremental.sssp": series(5, []string{"reached", "maxDistance"}, seedSSSP),
	// aion.incremental.pagerank(start, end, step) -> (ts, iterations, topNode, topRank).
	"aion.incremental.pagerank": series(3, []string{"iterations", "topNode", "topRank"}, seedPageRank),
	// aion.incremental.coloring(start, end, step) -> (ts, colors).
	"aion.incremental.coloring": series(3, []string{"colors"}, seedColoring),

	// aion.gds.pagerank(ts, topK) -> (node, rank).
	"aion.gds.pagerank": atSnapshot(2, 0, []string{"node", "rank"}, gdsPageRank),
	// aion.gds.wcc(ts) -> (component, size).
	"aion.gds.wcc": atSnapshot(1, 0, []string{"component", "size"}, gdsWCC),
	// aion.gds.triangleCount(ts) -> (triangles).
	"aion.gds.triangleCount": atSnapshot(1, 0, []string{"triangles"}, gdsTriangles),
	// aion.gds.bfs(src, ts) -> (node, level).
	"aion.gds.bfs": atSnapshot(2, 1, []string{"node", "level"}, gdsBFS),
	// aion.gds.sssp(src, ts, weightProp) -> (node, distance).
	"aion.gds.sssp": atSnapshot(3, 1, []string{"node", "distance"}, gdsSSSP),
	// aion.gds.lcc(nodeId, ts) -> (coefficient).
	"aion.gds.lcc": atSnapshot(2, 1, []string{"coefficient"}, gdsLCC),
}

// TimestampArgs returns the positions of the timestamp arguments of the
// built-in procedure name, none when no built-in has that name.
func TimestampArgs(name string) []int { return builtins[name].TSArgs }

func (e *Engine) execCall(ctx *execCtx, st *Statement) (*Result, error) {
	c := st.Call
	proc, ok := e.procs[c.Name]
	if !ok {
		return nil, fmt.Errorf("cypher: unknown procedure %q", c.Name)
	}
	call := &Call{Ctx: ctx.c, E: e, Args: make([]model.Value, len(c.Args))}
	for i, ex := range c.Args {
		v, err := ctx.evalScalar(bindings{}, ex)
		if err != nil {
			return nil, err
		}
		call.Args[i] = v
	}
	if len(call.Args) != proc.Arity {
		return nil, fmt.Errorf("cypher: %s expects %d arguments, got %d", c.Name, proc.Arity, len(call.Args))
	}
	// The yielded columns are checked before the body runs, PROFILE or not.
	idx := make([]int, len(c.Yield))
	for i, y := range c.Yield {
		if idx[i] = slices.Index(proc.Columns, y); idx[i] < 0 {
			return nil, fmt.Errorf("cypher: procedure %s does not yield %q", c.Name, y)
		}
	}
	if st.Profile {
		return profileCall(call, proc, c.Name)
	}
	if err := cmp.Or(proc.Run(call), call.err); err != nil {
		return nil, err
	}
	if len(c.Yield) == 0 {
		// The table is shared by every call: the result's columns are its own.
		return &Result{Columns: slices.Clone(proc.Columns), Rows: call.rows}, nil
	}
	// Project only the yielded columns, in the requested order.
	out := &Result{Columns: slices.Clone(c.Yield)}
	for _, row := range call.rows {
		pr := make([]Val, len(idx))
		for i, j := range idx {
			pr[i] = row[j]
		}
		out.Rows = append(out.Rows, pr)
	}
	return out, nil
}

// profileColumns are PROFILE's: one row per operator.
var profileColumns = []string{"operator", "store", "rows", "descents", "gets", "decoded", "us"}

// profileCall runs call with a profile in its ctx and returns, instead of its
// rows, one row per store operator it ran — its rows, B+Tree descents,
// page-cache gets, version records decoded and µs — then the call's own row,
// which sums them and counts the call's rows and whole time.
func profileCall(call *Call, proc Proc, name string) (*Result, error) {
	prof := &lineagestore.Profile{}
	call.Ctx = lineagestore.WithProfile(call.Ctx, prof)
	t0 := time.Now()
	if err := cmp.Or(proc.Run(call), call.err); err != nil {
		return nil, err
	}
	total := lineagestore.ProfileOp{Operator: "ProcedureCall " + name, Rows: len(call.rows), Elapsed: time.Since(t0)}
	out := &Result{Columns: slices.Clone(profileColumns)}
	row := func(op lineagestore.ProfileOp) {
		out.Rows = append(out.Rows, scalars(model.StringValue(op.Operator), model.StringValue(op.Store), model.IntValue(int64(op.Rows)),
			model.IntValue(int64(op.Descents)), model.IntValue(int64(op.Gets)), model.IntValue(int64(op.Decoded)),
			model.FloatValue(float64(op.Elapsed.Nanoseconds())/1e3)))
	}
	for _, op := range prof.Ops {
		row(op)
		total.Descents, total.Gets, total.Decoded = total.Descents+op.Descents, total.Gets+op.Gets, total.Decoded+op.Decoded
	}
	row(total)
	return out, nil
}

// scalars is a row of scalar values.
func scalars(vs ...model.Value) []Val {
	row := make([]Val, len(vs))
	for i, v := range vs {
		row[i] = ScalarVal(v)
	}
	return row
}

// dirOf reads a direction argument, 'out', 'in' or 'both' (also in capitals,
// or as 'outgoing' or 'incoming'); any other value fails, naming it.
func dirOf(v model.Value) (model.Direction, error) {
	switch v.Str() {
	case "out", "OUT", "outgoing", "OUTGOING":
		return model.Outgoing, nil
	case "in", "IN", "incoming", "INCOMING":
		return model.Incoming, nil
	case "both", "BOTH":
		return model.Both, nil
	}
	return 0, fmt.Errorf("cypher: unknown direction %v, want 'out', 'in' or 'both'", v)
}

// addVersions adds a (version, validFrom, validTo) row per version of vs —
// or fails with err, the read's — each row a view of one backing array, not a
// slice of its own.
func addVersions[E any](c *Call, vs []E, err error, row func(E) (Val, model.Interval)) error {
	if err != nil {
		return err
	}
	cells := make([]Val, 0, 3*len(vs))
	c.rows = slices.Grow(c.rows, len(vs))
	for _, v := range vs {
		val, iv := row(v)
		cells = append(cells, val, ScalarVal(model.IntValue(int64(iv.Start))), ScalarVal(model.IntValue(int64(iv.End))))
		c.Add(cells[len(cells)-3 : len(cells) : len(cells)]...)
	}
	return nil
}

func nodeRow(n *model.Node) (Val, model.Interval) { return NodeVal(n), n.Valid }

func relRow(r *model.Rel) (Val, model.Interval) { return RelVal(r), r.Valid }

func procNode(c *Call) error {
	ns, err := c.E.Sys.Aion.GetNodeContext(c.Ctx, model.NodeID(c.Args[0].Int()), c.ts(1), c.ts(2))
	return addVersions(c, ns, err, nodeRow)
}

func procRelationship(c *Call) error {
	rs, err := c.E.Sys.Aion.GetRelationshipContext(c.Ctx, model.RelID(c.Args[0].Int()), c.ts(1), c.ts(2))
	return addVersions(c, rs, err, relRow)
}

func procRelationships(c *Call) error {
	dir, err := dirOf(c.Args[1])
	if err != nil {
		return err
	}
	hists, err := c.E.Sys.Aion.GetRelationshipsContext(c.Ctx, model.NodeID(c.Args[0].Int()), dir, c.ts(2), c.ts(3))
	return addVersions(c, slices.Concat(hists...), err, relRow)
}

func procExpand(c *Call) error {
	dir, err := dirOf(c.Args[1])
	if err != nil {
		return err
	}
	hops, err := c.E.Sys.Aion.ExpandContext(c.Ctx, model.NodeID(c.Args[0].Int()), dir, int(c.Args[2].Int()), c.ts(3))
	if err != nil {
		return err
	}
	for h, ns := range hops {
		for _, n := range ns {
			c.Add(ScalarVal(model.IntValue(int64(h+1))), NodeVal(n))
		}
	}
	return nil
}

func procDiff(c *Call) error {
	diff, err := c.E.Sys.Aion.GetDiffContext(c.Ctx, c.ts(0), c.ts(1))
	if err != nil {
		return err
	}
	for _, u := range diff {
		entity, id := "node", int64(u.NodeID)
		if !u.Kind.IsNodeOp() {
			entity, id = "relationship", int64(u.RelID)
		}
		c.Add(scalars(model.IntValue(int64(u.TS)), model.StringValue(u.Kind.String()),
			model.StringValue(entity), model.IntValue(id))...)
	}
	return nil
}

func procGraph(c *Call) error {
	g, err := c.E.Sys.Aion.TimeStore().CacheGraphContext(c.Ctx, c.ts(0))
	if err != nil {
		return err
	}
	c.Add(scalars(model.IntValue(int64(g.NodeCount())), model.IntValue(int64(g.RelCount())))...)
	return nil
}

func procWindow(c *Call) error {
	g, err := c.E.Sys.Aion.GetWindowContext(c.Ctx, c.ts(0), c.ts(1))
	if err != nil {
		return err
	}
	c.Add(scalars(model.IntValue(int64(g.NodeCount())), model.IntValue(int64(g.RelCount())))...)
	return nil
}

// procStats adds one (name, value) row per key of the system's metrics
// registry, in key order; value is the entry's JSON.
func procStats(c *Call) error {
	c.E.Sys.Metrics.Do(func(kv expvar.KeyValue) {
		c.Add(scalars(model.StringValue(kv.Key), model.StringValue(kv.Value.String()))...)
	})
	return nil
}

// temporalPath is the entry of a temporal-path procedure (src, time, from,
// to): solve runs from node args[0] at time args[1] over the hops of the
// diff [args[2], args[3]), and every node it reaches is a row (node,
// column) in id order.
func temporalPath(column string,
	solve func([]algo.PathHop, model.NodeID, model.Timestamp) (map[model.NodeID]model.Timestamp, map[model.NodeID]algo.PathHop)) Proc {
	return Proc{4, []int{2, 3}, []string{"node", column}, func(c *Call) error {
		diff, err := c.E.Sys.Aion.GetDiffContext(c.Ctx, c.ts(2), c.ts(3))
		if err != nil {
			return err
		}
		times, _ := solve(algo.Hops(diff), model.NodeID(c.Args[0].Int()), c.ts(1))
		ids := make([]model.NodeID, 0, len(times))
		for id := range times {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		for _, id := range ids {
			c.Add(scalars(model.IntValue(int64(id)), model.IntValue(int64(times[id])))...)
		}
		return nil
	}}
}
