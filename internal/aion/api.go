package aion

import (
	"cmp"
	"context"
	"errors"
	"fmt"

	"aion/internal/memgraph"
	"aion/internal/model"
)

// errClosed is returned by writes, and by LineageStore reads, after Close.
var errClosed = errors.New("aion: store closed")

// Every read takes a ctx and observes it at a bounded stride.

// enter waits until the LineageStore holds every update at or before ts
// (awaitCascade) and takes the read side of the lock Close takes, which the
// caller gives back; it fails after Close.
func (db *DB) enter(ctx context.Context, ts model.Timestamp) error {
	if err := db.awaitCascade(ctx, ts); err != nil {
		return err
	}
	db.reading.RLock()
	if db.closed.Load() {
		db.reading.RUnlock()
		return errClosed
	}
	return nil
}

// fromLineage runs read, a Table 1 read of the LineageStore at ts, after
// enter, and counts it as one planner decision for the LineageStore.
func fromLineage[T any](ctx context.Context, db *DB, ts model.Timestamp, read func() (T, error)) (T, error) {
	if err := db.enter(ctx, ts); err != nil {
		var none T
		return none, err
	}
	defer db.reading.RUnlock()
	db.decided.lineage.Add(1)
	return read()
}

// GetNodeContext returns a node's history between the given timestamps
// (Table 1).
func (db *DB) GetNodeContext(ctx context.Context, id model.NodeID, start, end model.Timestamp) ([]*model.Node, error) {
	return fromLineage(ctx, db, end, func() ([]*model.Node, error) {
		return db.ls.GetNodeContext(ctx, id, start, end)
	})
}

// GetRelationshipContext returns a relationship's history between the given
// timestamps (Table 1).
func (db *DB) GetRelationshipContext(ctx context.Context, id model.RelID, start, end model.Timestamp) ([]*model.Rel, error) {
	return fromLineage(ctx, db, end, func() ([]*model.Rel, error) {
		return db.ls.GetRelationshipContext(ctx, id, start, end)
	})
}

// GetRelationshipsContext returns a node's (in/out) relationship history
// (Table 1).
func (db *DB) GetRelationshipsContext(ctx context.Context, id model.NodeID, d model.Direction, start, end model.Timestamp) ([][]*model.Rel, error) {
	return fromLineage(ctx, db, end, func() ([][]*model.Rel, error) {
		return db.ls.GetRelationshipsContext(ctx, id, d, start, end)
	})
}

// PlanContext is the planner's one decision for a read at ts (Sec 5.1). A
// read that expands hops steps in d from known nodes runs on the View at ts
// when it is estimated to access less than 30 % of the graph, or expands
// nothing, and on the TimeStore's snapshot otherwise; either way it counts one
// decision. A read that starts from no known node scans every node: it gets
// the snapshot and counts none.
func (db *DB) PlanContext(ctx context.Context, ts model.Timestamp, anchored bool, hops int, d model.Direction) (model.Graph, error) {
	switch {
	case !anchored:
	case hops == 0 || db.stats.EstimateExpandFraction(hops, d) < SelectivityThreshold:
		db.decided.lineage.Add(1)
		return db.View(ctx, ts), nil
	default:
		db.decided.time.Add(1)
	}
	return db.GraphAtContext(ctx, ts)
}

// ExpandContext returns the n-hop neighbourhood of a node at time ts
// (Table 1, Alg 1), as Expand does, on the graph PlanContext picks.
func (db *DB) ExpandContext(ctx context.Context, id model.NodeID, d model.Direction, hops int, ts model.Timestamp) ([][]*model.Node, error) {
	if hops < 0 {
		return nil, fmt.Errorf("aion: expand by %d hops", hops)
	}
	g, err := db.PlanContext(ctx, ts, true, hops, d)
	if err != nil {
		return nil, err
	}
	return Expand(ctx, g, id, d, hops)
}

// View returns the graph at ts as the LineageStore holds it, for one query. It
// counts no planner decision. Neighbours reads a node's relationships and the
// states of their other ends not read before after one enter and through one
// node-tree cursor, as Alg 1 takes them (Sec 4.4), and keeps those states.
// States keep their version's Valid.Start and report Valid.End open, as a
// snapshot at ts does. Node and Rel are one point read each. ForEachNode, a
// scan, fails the view; ReadErr returns its first failed read's error.
func (db *DB) View(ctx context.Context, ts model.Timestamp) model.Graph {
	return &view{ctx: ctx, db: db, ts: ts}
}

type view struct {
	ctx   context.Context
	db    *DB
	ts    model.Timestamp
	nodes map[model.NodeID]*model.Node // the states Neighbours read; nil: none at ts
	ends  *ends                        // Neighbours' buffers, from its first call
	err   error
}

// ends are the other ends a Neighbours call reads, and their states.
type ends struct {
	ids    []model.NodeID
	states []*model.Node
}

// ReadErr returns what failed a View's read, nil for any other graph.
func ReadErr(g model.Graph) error {
	if v, ok := g.(*view); ok {
		return v.err
	}
	return nil
}

// gate is the view's one way into the LineageStore: it runs read, a read at
// v.ts, after enter and keeps the view's first failed read's error.
func gate[T any](v *view, read func() ([]T, error)) []T {
	if err := v.db.enter(v.ctx, v.ts); err != nil {
		v.err = cmp.Or(v.err, err)
		return nil
	}
	defer v.db.reading.RUnlock()
	got, err := read()
	if v.err = cmp.Or(v.err, err); err != nil {
		return nil
	}
	return got
}

func (v *view) Node(id model.NodeID) *model.Node {
	if n, ok := v.nodes[id]; ok {
		return n
	}
	ns := gate(v, func() ([]*model.Node, error) { return v.db.ls.NodesAtContext(v.ctx, []model.NodeID{id}, v.ts, nil) })
	if len(ns) == 0 || ns[0] == nil {
		return nil
	}
	ns[0].Valid.End = model.TSInfinity
	return ns[0]
}

func (v *view) Rel(id model.RelID) *model.Rel {
	rs := gate(v, func() ([]*model.Rel, error) { return v.db.ls.GetRelationshipContext(v.ctx, id, v.ts, v.ts) })
	if len(rs) == 0 {
		return nil
	}
	rs[0].Valid.End = model.TSInfinity
	return rs[0]
}

func (v *view) HasNode(id model.NodeID) bool { return v.Node(id) != nil }

func (v *view) Ends(id model.RelID) (src, tgt model.NodeID, ok bool) {
	if r := v.Rel(id); r != nil {
		return r.Src, r.Tgt, true
	}
	return 0, 0, false
}

// Neighbours yields a self-loop twice when d is Both, as the snapshot does.
func (v *view) Neighbours(id model.NodeID, d model.Direction, fn func(r *model.Rel, nb model.NodeID) bool) {
	rels := gate(v, func() ([][]*model.Rel, error) { return v.relationships(id, d) })
	for _, vs := range rels {
		vs[0].Valid.End = model.TSInfinity
		if !fn(vs[0], otherEnd(vs[0], id)) || d == model.Both && vs[0].Src == vs[0].Tgt && !fn(vs[0], id) {
			return
		}
	}
}

// otherEnd returns the end of r that is not id, or id for a self-loop.
func otherEnd(r *model.Rel, id model.NodeID) model.NodeID { return r.Src ^ r.Tgt ^ id }

// relationships reads id's relationships live at ts, and into v.nodes the
// states of their ends not read before; it runs behind gate.
func (v *view) relationships(id model.NodeID, d model.Direction) ([][]*model.Rel, error) {
	rels, err := v.db.ls.GetRelationshipsContext(v.ctx, id, d, v.ts, v.ts)
	if err != nil {
		return nil, err
	}
	if v.nodes == nil {
		v.nodes, v.ends = make(map[model.NodeID]*model.Node, len(rels)), &ends{}
	}
	e := v.ends
	e.ids = e.ids[:0]
	for _, vs := range rels {
		if _, ok := v.nodes[otherEnd(vs[0], id)]; !ok { // parallel relationships read their end twice
			e.ids = append(e.ids, otherEnd(vs[0], id))
		}
	}
	if e.states, err = v.db.ls.NodesAtContext(v.ctx, e.ids, v.ts, e.states[:0]); err != nil {
		return nil, err
	}
	for i, n := range e.states {
		if n != nil {
			n.Valid.End = model.TSInfinity
		}
		v.nodes[e.ids[i]] = n
	}
	return rels, nil
}

func (v *view) ForEachNode(func(*model.Node) bool) {
	v.err = cmp.Or(v.err, errors.New("aion: a LineageStore view cannot scan every node"))
}

// Expand runs Alg 1 on g and returns the nodes each of hops hops reaches
// first, one slice per hop up to the last hop that reaches a node (none when
// the first reaches none); ctx is checked at every node.
func Expand(ctx context.Context, g model.Graph, id model.NodeID, d model.Direction, hops int) ([][]*model.Node, error) {
	var result [][]*model.Node
	var err error
	ExpandInGraph(g, id, d, hops, "", func(hop int, _ *model.Rel, n *model.Node) bool {
		if hop == len(result) {
			result = append(result, nil)
		}
		result[hop] = append(result[hop], n)
		err = ctx.Err()
		return err == nil
	})
	if err = cmp.Or(err, ReadErr(g)); err != nil {
		return nil, err
	}
	return result, nil
}

// ExpandInGraph is Alg 1: hop by hop from id, over relationships of type typ
// ("" for any), each node reached once per hop. fn gets every node with its
// hop (0 for the first) and the relationship that first reached it in that
// hop; returning false stops the walk.
func ExpandInGraph(g model.Graph, id model.NodeID, d model.Direction, hops int, typ string, fn func(hop int, r *model.Rel, n *model.Node) bool) {
	queue := []model.NodeID{id}
	for hop := 0; hop < hops && len(queue) > 0; hop++ {
		visited := map[model.NodeID]bool{}
		var next []model.NodeID
		stopped := false
		for _, cid := range queue {
			g.Neighbours(cid, d, func(r *model.Rel, nb model.NodeID) bool {
				if visited[nb] || typ != "" && r.Label != typ {
					return true
				}
				visited[nb] = true
				if n := g.Node(nb); n != nil {
					next = append(next, nb)
					stopped = !fn(hop, r, n)
				}
				return !stopped
			})
			if stopped {
				return
			}
		}
		queue = next
	}
}

// ExpandRangeContext runs the n-hop expansion at each materialization step
// in [start, end] (the full Table 1 expand signature with start, end, and
// step): one [][]*model.Node result per step time. ctx is checked before
// each step's expansion, and the steps never wrap past MaxInt64; a negative
// hop count fails at the first.
func (db *DB) ExpandRangeContext(ctx context.Context, id model.NodeID, d model.Direction, hops int, start, end, step model.Timestamp) ([][][]*model.Node, error) {
	if step <= 0 {
		return nil, fmt.Errorf("aion: step must be positive")
	}
	if end < start {
		return nil, fmt.Errorf("aion: end %d before start %d", end, start)
	}
	var out [][][]*model.Node
	for steps := model.NewSteps(start, end, step); ; {
		ts, ok, err := steps.Next(ctx)
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		res, err := db.ExpandContext(ctx, id, d, hops, ts)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
}

// GetDiffContext returns all graph updates between two time instances
// (Table 1), enabling incremental execution.
func (db *DB) GetDiffContext(ctx context.Context, start, end model.Timestamp) ([]model.Update, error) {
	return db.ts.GetDiffContext(ctx, start, end)
}

// GraphAtContext materializes the LPG snapshot at ts.
func (db *DB) GraphAtContext(ctx context.Context, ts model.Timestamp) (*memgraph.Graph, error) {
	return db.ts.GetGraphContext(ctx, ts)
}

// GetGraphContext returns the history of the graph between two timestamps as
// a series of snapshots, one per step (Table 1); start == end is the one
// snapshot at start.
func (db *DB) GetGraphContext(ctx context.Context, start, end, step model.Timestamp) ([]*memgraph.Graph, error) {
	var out []*memgraph.Graph
	err := db.ts.ScanGraphsContext(ctx, start, end, step, func(g *memgraph.Graph) bool {
		out = append(out, g.Clone())
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// GetWindowContext filters graph history by a time window (Table 1): every
// entity with a version in [start, end), in its last state before end; the
// graph at start when start == end, and empty when end < start.
func (db *DB) GetWindowContext(ctx context.Context, start, end model.Timestamp) (*memgraph.Graph, error) {
	return db.ts.GetWindowContext(ctx, start, end)
}
