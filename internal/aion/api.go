package aion

import (
	"context"
	"errors"
	"fmt"

	"aion/internal/memgraph"
	"aion/internal/model"
)

// ErrNoStore is returned when a query needs a store that this instance was
// not configured with: a global query in SyncLineageOnly mode, an entity read
// in SyncTimeStoreOnly mode.
var ErrNoStore = errors.New("aion: required temporal store not configured")

// errClosed is returned by writes, and by LineageStore reads, after Close.
var errClosed = errors.New("aion: store closed")

// The read API comes in pairs following the database/sql convention:
// Xxx(...) is shorthand for XxxContext(context.Background(), ...), and the
// Context variant observes cancellation cooperatively through both stores —
// the TimeStore's snapshot-load/log-replay pipelines and the LineageStore's
// B+Tree range scans all stop within a bounded stride of the context firing,
// and a read waiting for the cascade stops waiting.

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
	if db.ls == nil {
		return none, ErrNoStore
	}
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

// GetNode returns a node's history between the given timestamps (Table 1).
func (db *DB) GetNode(id model.NodeID, start, end model.Timestamp) ([]*model.Node, error) {
	return db.GetNodeContext(context.Background(), id, start, end)
}

// GetNodeContext is GetNode honouring ctx cancellation.
func (db *DB) GetNodeContext(ctx context.Context, id model.NodeID, start, end model.Timestamp) ([]*model.Node, error) {
	return fromLineage(ctx, db, end, func() ([]*model.Node, error) {
		return db.ls.GetNodeContext(ctx, id, start, end)
	})
}

// GetRelationship returns a relationship's history between the given
// timestamps (Table 1).
func (db *DB) GetRelationship(id model.RelID, start, end model.Timestamp) ([]*model.Rel, error) {
	return db.GetRelationshipContext(context.Background(), id, start, end)
}

// GetRelationshipContext is GetRelationship honouring ctx cancellation.
func (db *DB) GetRelationshipContext(ctx context.Context, id model.RelID, start, end model.Timestamp) ([]*model.Rel, error) {
	return fromLineage(ctx, db, end, func() ([]*model.Rel, error) {
		return db.ls.GetRelationshipContext(ctx, id, start, end)
	})
}

// GetRelationships returns a node's (in/out) relationship history (Table 1).
func (db *DB) GetRelationships(id model.NodeID, d model.Direction, start, end model.Timestamp) ([][]*model.Rel, error) {
	return db.GetRelationshipsContext(context.Background(), id, d, start, end)
}

// GetRelationshipsContext is GetRelationships honouring ctx cancellation.
func (db *DB) GetRelationshipsContext(ctx context.Context, id model.NodeID, d model.Direction, start, end model.Timestamp) ([][]*model.Rel, error) {
	return fromLineage(ctx, db, end, func() ([][]*model.Rel, error) {
		return db.ls.GetRelationshipsContext(ctx, id, d, start, end)
	})
}

// PlanExpand returns the store the planner would choose for an n-hop
// expansion, applying the Sec 5.1 heuristic: less than 30 % of the graph
// estimated to be accessed selects the LineageStore (if there is one; if
// there is no TimeStore, the LineageStore in any case).
func (db *DB) PlanExpand(hops int, d model.Direction) StoreChoice {
	if db.ts == nil || db.ls != nil && db.stats.EstimateExpandFraction(hops, d) < SelectivityThreshold {
		return ChoseLineage
	}
	return ChoseTimeStore
}

// Expand returns the n-hop neighbourhood of a node at time ts (Table 1,
// Alg 1), one slice per hop. The planner picks the store by estimated
// cardinality.
func (db *DB) Expand(id model.NodeID, d model.Direction, hops int, ts model.Timestamp) ([][]*model.Node, error) {
	return db.ExpandContext(context.Background(), id, d, hops, ts)
}

// ExpandContext is Expand honouring ctx cancellation.
func (db *DB) ExpandContext(ctx context.Context, id model.NodeID, d model.Direction, hops int, ts model.Timestamp) ([][]*model.Node, error) {
	if db.PlanExpand(hops, d) == ChoseTimeStore {
		db.decided.time.Add(1)
		return db.expandViaTimeStore(ctx, id, d, hops, ts)
	}
	return fromLineage(ctx, db, ts, func() ([][]*model.Node, error) {
		return db.ls.ExpandContext(ctx, id, d, hops, ts)
	})
}

// ExpandViaTimeStore materializes a full snapshot and walks it — the
// TimeStore expansion path whose cost is dominated by graph retrieval
// (Sec 4.3). Exported for the Fig 8 store comparison.
func (db *DB) ExpandViaTimeStore(id model.NodeID, d model.Direction, hops int, ts model.Timestamp) ([][]*model.Node, error) {
	return db.expandViaTimeStore(context.Background(), id, d, hops, ts)
}

func (db *DB) expandViaTimeStore(ctx context.Context, id model.NodeID, d model.Direction, hops int, ts model.Timestamp) ([][]*model.Node, error) {
	if db.ts == nil {
		return nil, ErrNoStore
	}
	g, err := db.ts.GetGraphContext(ctx, ts)
	if err != nil {
		return nil, err
	}
	return ExpandInGraph(g, id, d, hops), nil
}

// ExpandInGraph runs the Alg 1 expansion (per-hop deduplication) over a
// materialized snapshot.
func ExpandInGraph(g *memgraph.Graph, id model.NodeID, d model.Direction, hops int) [][]*model.Node {
	result := make([][]*model.Node, hops)
	queue := []model.NodeID{id}
	for hop := 0; hop < hops; hop++ {
		visited := map[model.NodeID]bool{}
		var next []model.NodeID
		for _, cid := range queue {
			g.Neighbours(cid, d, func(_ *model.Rel, nb model.NodeID) bool {
				if !visited[nb] {
					visited[nb] = true
					if n := g.Node(nb); n != nil {
						result[hop] = append(result[hop], n)
						next = append(next, nb)
					}
				}
				return true
			})
		}
		queue = next
		if len(queue) == 0 {
			break
		}
	}
	return result
}

// ExpandRange runs the n-hop expansion at each materialization step in
// [start, end] (the full Table 1 expand signature with start, end, and
// step): one [][]*model.Node result per step time.
func (db *DB) ExpandRange(id model.NodeID, d model.Direction, hops int, start, end, step model.Timestamp) ([][][]*model.Node, error) {
	return db.ExpandRangeContext(context.Background(), id, d, hops, start, end, step)
}

// ExpandRangeContext is ExpandRange honouring ctx cancellation, checked
// before each step's expansion.
func (db *DB) ExpandRangeContext(ctx context.Context, id model.NodeID, d model.Direction, hops int, start, end, step model.Timestamp) ([][][]*model.Node, error) {
	if step <= 0 {
		return nil, fmt.Errorf("aion: step must be positive")
	}
	if end < start {
		return nil, fmt.Errorf("aion: end %d before start %d", end, start)
	}
	var out [][][]*model.Node
	for ts := start; ts <= end; ts += step {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res, err := db.ExpandContext(ctx, id, d, hops, ts)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// ScanGraphs lazily materializes the snapshot series (footnote 4's lazy
// variant of getGraph); fn must clone a snapshot to retain it.
func (db *DB) ScanGraphs(start, end, step model.Timestamp, fn func(g *memgraph.Graph) bool) error {
	return db.ScanGraphsContext(context.Background(), start, end, step, fn)
}

// ScanGraphsContext is ScanGraphs honouring ctx cancellation.
func (db *DB) ScanGraphsContext(ctx context.Context, start, end, step model.Timestamp, fn func(g *memgraph.Graph) bool) error {
	if db.ts == nil {
		return ErrNoStore
	}
	return db.ts.ScanGraphsContext(ctx, start, end, step, fn)
}

// GetDiff returns all graph updates between two time instances (Table 1),
// enabling incremental execution.
func (db *DB) GetDiff(start, end model.Timestamp) ([]model.Update, error) {
	return db.GetDiffContext(context.Background(), start, end)
}

// GetDiffContext is GetDiff honouring ctx cancellation.
func (db *DB) GetDiffContext(ctx context.Context, start, end model.Timestamp) ([]model.Update, error) {
	if db.ts == nil {
		return nil, ErrNoStore
	}
	return db.ts.GetDiffContext(ctx, start, end)
}

// GraphAt materializes the LPG snapshot at ts.
func (db *DB) GraphAt(ts model.Timestamp) (*memgraph.Graph, error) {
	return db.GraphAtContext(context.Background(), ts)
}

// GraphAtContext is GraphAt honouring ctx cancellation.
func (db *DB) GraphAtContext(ctx context.Context, ts model.Timestamp) (*memgraph.Graph, error) {
	if db.ts == nil {
		return nil, ErrNoStore
	}
	return db.ts.GetGraphContext(ctx, ts)
}

// GetGraph returns the history of the graph between two timestamps as a
// series of snapshots, one per step (Table 1).
func (db *DB) GetGraph(start, end, step model.Timestamp) ([]*memgraph.Graph, error) {
	return db.GetGraphContext(context.Background(), start, end, step)
}

// GetGraphContext is GetGraph honouring ctx cancellation.
func (db *DB) GetGraphContext(ctx context.Context, start, end, step model.Timestamp) ([]*memgraph.Graph, error) {
	if db.ts == nil {
		return nil, ErrNoStore
	}
	if start == end {
		g, err := db.ts.GetGraphContext(ctx, start)
		if err != nil {
			return nil, err
		}
		return []*memgraph.Graph{g}, nil
	}
	return db.ts.GetGraphsContext(ctx, start, end, step)
}

// GetWindow filters graph history by a time window (Table 1): every entity
// with a version in [start, end), in its last state before end; the graph at
// start when start == end, and empty when end < start.
func (db *DB) GetWindow(start, end model.Timestamp) (*memgraph.Graph, error) {
	return db.GetWindowContext(context.Background(), start, end)
}

// GetWindowContext is GetWindow honouring ctx cancellation.
func (db *DB) GetWindowContext(ctx context.Context, start, end model.Timestamp) (*memgraph.Graph, error) {
	if db.ts == nil {
		return nil, ErrNoStore
	}
	return db.ts.GetWindowContext(ctx, start, end)
}

// FilterBitemporal applies the application-time filter of Sec 4.5 to
// entities already filtered by system time: a valid (sub)graph is retrieved
// first, then entities whose application-time interval is not contained in
// [appStart, appEnd] are dropped. Entities without application time fall
// back to system time (always kept, since system time already matched).
func FilterBitemporal[E interface{ AppInterval() model.Interval }](es []E, appStart, appEnd model.Timestamp) []E {
	var out []E
	win := model.Interval{Start: appStart, End: appEnd + 1} // CONTAINED IN is closed
	for _, e := range es {
		iv := e.AppInterval()
		if iv.Start == 0 && iv.End == model.TSInfinity {
			out = append(out, e) // no app time set: fall back to system time
			continue
		}
		if iv.Start >= win.Start && iv.End <= win.End {
			out = append(out, e)
		}
	}
	return out
}
