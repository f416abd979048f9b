package aion

import (
	"context"
	"errors"
	"fmt"

	"aion/internal/memgraph"
	"aion/internal/model"
)

// errClosed is returned by writes, and by LineageStore reads, after Close.
var errClosed = errors.New("aion: store closed")

// Every read takes a ctx and observes it at a bounded stride.

// StoreChoice identifies which temporal store the planner picked.
type StoreChoice int

const (
	// ChoseLineage means the query ran on the LineageStore.
	ChoseLineage StoreChoice = iota
	// ChoseTimeStore means the query materialized a TimeStore snapshot.
	ChoseTimeStore
)

// String returns the choice name.
func (c StoreChoice) String() string {
	if c == ChoseLineage {
		return "LineageStore"
	}
	return "TimeStore"
}

// fromLineage runs read, a LineageStore read at ts, once the store holds every
// update at or before ts (awaitCascade) and only while it is open.
func fromLineage[T any](ctx context.Context, db *DB, ts model.Timestamp, read func() (T, error)) (T, error) {
	var none T
	if err := db.awaitCascade(ctx, ts); err != nil {
		return none, err
	}
	db.reading.RLock()
	defer db.reading.RUnlock()
	if db.closed.Load() {
		return none, errClosed
	}
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

// PlanExpand returns the store the planner would choose for an n-hop
// expansion, applying the Sec 5.1 heuristic: less than 30 % of the graph
// estimated to be accessed selects the LineageStore.
func (db *DB) PlanExpand(hops int, d model.Direction) StoreChoice {
	if db.stats.EstimateExpandFraction(hops, d) < SelectivityThreshold {
		return ChoseLineage
	}
	return ChoseTimeStore
}

// ExpandContext returns the n-hop neighbourhood of a node at time ts
// (Table 1, Alg 1), one slice per hop. The planner picks the store by
// estimated cardinality.
func (db *DB) ExpandContext(ctx context.Context, id model.NodeID, d model.Direction, hops int, ts model.Timestamp) ([][]*model.Node, error) {
	if db.PlanExpand(hops, d) == ChoseTimeStore {
		db.decided.time.Add(1)
		return db.ExpandViaTimeStore(ctx, id, d, hops, ts)
	}
	return fromLineage(ctx, db, ts, func() ([][]*model.Node, error) {
		return db.ls.ExpandContext(ctx, id, d, hops, ts)
	})
}

// ExpandViaTimeStore materializes a full snapshot and walks it — the
// TimeStore expansion path whose cost is dominated by graph retrieval
// (Sec 4.3). Exported for the Fig 8 store comparison.
func (db *DB) ExpandViaTimeStore(ctx context.Context, id model.NodeID, d model.Direction, hops int, ts model.Timestamp) ([][]*model.Node, error) {
	g, err := db.GraphAtContext(ctx, ts)
	if err != nil {
		return nil, err
	}
	result := make([][]*model.Node, hops)
	ExpandInGraph(g, id, d, hops, "", func(hop int, _ *model.Rel, n *model.Node) bool {
		result[hop] = append(result[hop], n)
		return true
	})
	return result, nil
}

// ExpandInGraph runs the Alg 1 expansion over a materialized snapshot: hop by
// hop from id, over relationships of type typ ("" for any), each node reached
// once per hop. fn gets every node with its hop (0 for the first) and the
// relationship that first reached it in that hop; returning false stops the
// walk.
func ExpandInGraph(g *memgraph.Graph, id model.NodeID, d model.Direction, hops int, typ string, fn func(hop int, r *model.Rel, n *model.Node) bool) {
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
// each step's expansion, and the steps never wrap past MaxInt64.
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
	if start == end {
		g, err := db.ts.GetGraphContext(ctx, start)
		if err != nil {
			return nil, err
		}
		return []*memgraph.Graph{g}, nil
	}
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
