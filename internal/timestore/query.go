package timestore

import (
	"context"
	"fmt"

	"aion/internal/memgraph"
	"aion/internal/model"
	"aion/internal/pool"
)

// The query API comes in pairs following the database/sql convention:
// Xxx(...) is shorthand for XxxContext(context.Background(), ...), and the
// Context variant observes cancellation and deadlines cooperatively — the
// log-replay and snapshot-load loops (the two unbounded parts of any
// global query) stop within one readahead batch of the context firing and
// return ctx.Err().
//
// Every public entry point takes sealMu.RLock exactly once for its whole
// walk and delegates to *Locked internals, so the segment set it routes
// over cannot change mid-query (a seal takes the write side). The
// internals therefore must never re-enter a public method.

// GetDiff returns all graph updates with start <= ts < end in commit order
// (Table 1). History before the sealed boundary is gathered from the sealed
// segments' logs in parallel (scatter-gather); the active tail is streamed.
func (s *Store) GetDiff(start, end model.Timestamp) ([]model.Update, error) {
	return s.GetDiffContext(context.Background(), start, end)
}

// GetDiffContext is GetDiff honouring ctx cancellation.
func (s *Store) GetDiffContext(ctx context.Context, start, end model.Timestamp) ([]model.Update, error) {
	var out []model.Update
	err := s.ScanDiffContext(ctx, start, end, func(u model.Update) bool {
		out = append(out, u)
		return true
	})
	return out, err
}

// ScanDiff streams the updates with start <= ts < end to fn in commit
// order, stopping early if fn returns false.
func (s *Store) ScanDiff(start, end model.Timestamp, fn func(u model.Update) bool) error {
	return s.ScanDiffContext(context.Background(), start, end, fn)
}

// ScanDiffContext is ScanDiff honouring ctx cancellation.
func (s *Store) ScanDiffContext(ctx context.Context, start, end model.Timestamp, fn func(u model.Update) bool) error {
	if start >= end {
		return nil
	}
	s.sealMu.RLock()
	defer s.sealMu.RUnlock()
	return s.scanFromLocked(ctx, position{ts: start - 1, seq: seqComplete}, end, fn)
}

// before orders two stream positions.
func (p position) before(q position) bool {
	if p.ts != q.ts {
		return p.ts < q.ts
	}
	return p.seq < q.seq
}

// scanFromLocked streams every update strictly after position from and with
// timestamp < end to fn in commit order. The sealed segments overlapping
// the range are read as a scatter-gather: pool workers walk them
// concurrently, one worker each (nesting another pool per segment would
// oversubscribe), while the consumer hands the collected runs to fn in
// segment order — a sealed segment is bounded by PartitionEvery, so holding
// its run is too. The active segment, unbounded in a store that never
// seals, follows streamed. Caller holds sealMu (either mode).
func (s *Store) scanFromLocked(ctx context.Context, from position, end model.Timestamp, fn func(u model.Update) bool) error {
	var overlap []*segment
	for _, g := range s.segs[:len(s.segs)-1] {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		if from.before(g.end()) && g.minTS < end {
			overlap = append(overlap, g)
		}
	}
	stopped := false
	if len(overlap) > 0 {
		err := pool.RunOrderedCtx(ctx, s.opts.ParallelIO,
			func(emit func(*segment) bool) error {
				for _, g := range overlap {
					if !emit(g) {
						return nil
					}
				}
				return nil
			},
			func(g *segment) ([]model.Update, error) {
				var out []model.Update // decoded updates do not alias the scan's buffers
				err := s.scanSegment(ctx, g, 1, from, end, func(u model.Update) bool {
					out = append(out, u)
					return true
				})
				return out, err
			},
			func(us []model.Update) error {
				for _, u := range us {
					if !fn(u) {
						stopped = true
						return pool.ErrStop
					}
				}
				return nil
			})
		if err != nil || stopped {
			return err
		}
	}
	return s.scanSegment(ctx, s.active(), s.opts.ParallelIO, from, end, fn)
}

// scanSegment is the one walk over a segment's log, sealed or active: from
// g.startFence(from) it numbers every record off the fence's position and
// hands those strictly after from, up to the first with timestamp >= end,
// to fn. Records at or before from (at most a fence stride, or the head of
// a chain cut) are discarded unseen — fn counts only what it applies.
func (s *Store) scanSegment(ctx context.Context, g *segment, workers int, from position, end model.Timestamp, fn func(u model.Update) bool) error {
	start := g.startFence(from)
	cur := start.pos
	return s.replayWal(ctx, g.log, workers, start.off, logEnd, func(_ int64, u model.Update) bool {
		if u.TS >= end {
			return false
		}
		cur = cur.next(u.TS)
		if !from.before(cur) {
			return true // at or before from: not part of the answer
		}
		return fn(u)
	})
}

// GetGraph materializes the LPG snapshot valid at ts: fetch the closest
// base at or before ts — a cached graph or a segment's chain element — and
// apply the forward changes from the owning log (Sec 4.3). A timestamp
// inside a sealed segment replays only that segment's chain tail, never the
// whole history. The returned graph is private to the caller.
func (s *Store) GetGraph(ts model.Timestamp) (*memgraph.Graph, error) {
	return s.GetGraphContext(context.Background(), ts)
}

// GetGraphContext is GetGraph honouring ctx cancellation: both halves of
// the materialization (base load, log replay) are cancellation points.
func (s *Store) GetGraphContext(ctx context.Context, ts model.Timestamp) (*memgraph.Graph, error) {
	s.sealMu.RLock()
	defer s.sealMu.RUnlock()
	return s.getGraphLocked(ctx, ts)
}

func (s *Store) getGraphLocked(ctx context.Context, ts model.Timestamp) (*memgraph.Graph, error) {
	g, pos, err := s.basePosLocked(ctx, ts)
	if err != nil {
		return nil, err
	}
	var derr error
	err = s.scanFromLocked(ctx, pos, ts+1, func(u model.Update) bool {
		if aerr := g.Apply(u); aerr != nil {
			derr = fmt.Errorf("timestore: replay: %w", aerr)
			return false
		}
		s.replayed.Add(1)
		return true
	})
	if err == nil {
		err = derr
	}
	if err != nil {
		return nil, err
	}
	g.SetTimestamp(ts)
	return g, nil
}

// basePosLocked returns a mutable graph at the closest base position <= ts
// together with that exact position: the later of the in-memory GraphStore's
// floor and the newest chain element on disk — falling back to the empty
// graph before all history. Caller holds sealMu (either mode).
//
// Graphs enter the GraphStore only when complete at their timestamp (the
// cache key carries no sequence), so a cached hit is always position
// (ts, seqComplete), and it wins over an element at the same timestamp.
func (s *Store) basePosLocked(ctx context.Context, ts model.Timestamp) (*memgraph.Graph, position, error) {
	cached, cachedTS, ok := s.gs.Floor(ts)
	best := position{ts: -1, seq: seqComplete}
	if ok {
		best.ts = cachedTS
	}
	if seg, chain, j := s.floorElem(ts); j >= 0 && best.before(chain[j].pos) {
		g, err := s.materializeElem(ctx, seg, chain, j, cached)
		return g, chain[j].pos, err
	}
	if ok {
		return cached, best, nil
	}
	return memgraph.New(), best, nil
}

// GetGraphs returns a series of snapshots at start, start+step, ..., built
// incrementally with one base fetch and a single range scan (Table 1:
// "getGraph(1993, 2023, 1-year) returns thirty snapshots"). The series
// covers timestamps start <= ts <= end.
func (s *Store) GetGraphs(start, end model.Timestamp, step model.Timestamp) ([]*memgraph.Graph, error) {
	return s.GetGraphsContext(context.Background(), start, end, step)
}

// GetGraphsContext is GetGraphs honouring ctx cancellation.
func (s *Store) GetGraphsContext(ctx context.Context, start, end model.Timestamp, step model.Timestamp) ([]*memgraph.Graph, error) {
	var out []*memgraph.Graph
	err := s.ScanGraphsContext(ctx, start, end, step, func(g *memgraph.Graph) bool {
		out = append(out, g.Clone())
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ScanGraphs is the lazy variant of GetGraphs (footnote 4: "snapshots can
// be computed eagerly or lazily depending on the application"): each
// snapshot is handed to fn as it materializes and may be retained only by
// cloning; iteration stops early when fn returns false.
func (s *Store) ScanGraphs(start, end, step model.Timestamp, fn func(g *memgraph.Graph) bool) error {
	return s.ScanGraphsContext(context.Background(), start, end, step, fn)
}

// ScanGraphsContext is ScanGraphs honouring ctx cancellation.
func (s *Store) ScanGraphsContext(ctx context.Context, start, end, step model.Timestamp, fn func(g *memgraph.Graph) bool) error {
	if step <= 0 {
		return fmt.Errorf("timestore: step must be positive")
	}
	if end < start {
		return fmt.Errorf("timestore: end %d before start %d", end, start)
	}
	s.sealMu.RLock()
	defer s.sealMu.RUnlock()
	g, pos, err := s.basePosLocked(ctx, start)
	if err != nil {
		return err
	}
	next := start
	stopped := false
	emitThrough := func(upTo model.Timestamp) error {
		for next <= upTo && next <= end {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			g.SetTimestamp(next)
			if !fn(g) {
				stopped = true
				return nil
			}
			next += step
		}
		return nil
	}
	var derr error
	err = s.scanFromLocked(ctx, pos, end+1, func(u model.Update) bool {
		if derr = emitThrough(u.TS - 1); derr != nil || stopped {
			return false
		}
		if aerr := g.Apply(u); aerr != nil {
			derr = fmt.Errorf("timestore: replay: %w", aerr)
			return false
		}
		s.replayed.Add(1)
		return true
	})
	if derr != nil {
		return derr
	}
	if err != nil || stopped {
		return err
	}
	return emitThrough(end)
}

// GetTemporalGraph builds the temporal LPG over [start, end): the state at
// start seeds the initial versions, and every update in the interval
// appends to the version chains (Table 1).
func (s *Store) GetTemporalGraph(start, end model.Timestamp) (*memgraph.TGraph, error) {
	return s.GetTemporalGraphContext(context.Background(), start, end)
}

// GetTemporalGraphContext is GetTemporalGraph honouring ctx cancellation.
// It holds the segment set stable for the whole build (one RLock via the
// *Locked internals — the public GetGraph/ScanDiff pair would re-acquire
// it, and a writer queued between the two acquisitions would deadlock the
// second).
func (s *Store) GetTemporalGraphContext(ctx context.Context, start, end model.Timestamp) (*memgraph.TGraph, error) {
	s.sealMu.RLock()
	defer s.sealMu.RUnlock()
	base, err := s.getGraphLocked(ctx, start)
	if err != nil {
		return nil, err
	}
	tg := memgraph.NewTGraph(model.Interval{Start: start, End: end})
	// Seed versions keep their original start times (as far as the base
	// snapshot preserved them), so consumers can tell carried-over
	// entities from ones created inside the interval.
	var aerr error
	base.ForEachNode(func(n *model.Node) bool {
		aerr = tg.Apply(model.AddNode(n.Valid.Start, n.ID, n.Labels, n.Props))
		return aerr == nil
	})
	if aerr != nil {
		return nil, aerr
	}
	base.ForEachRel(func(r *model.Rel) bool {
		aerr = tg.Apply(model.AddRel(r.Valid.Start, r.ID, r.Src, r.Tgt, r.Label, r.Props))
		return aerr == nil
	})
	if aerr != nil {
		return nil, aerr
	}
	if start+1 < end {
		err = s.scanFromLocked(ctx, position{ts: start, seq: seqComplete}, end, func(u model.Update) bool {
			if e := tg.Apply(u); e != nil {
				aerr = e
				return false
			}
			return true
		})
	}
	if aerr != nil {
		return nil, aerr
	}
	return tg, err
}

// GetWindow filters the graph history by a time window (Table 1): a
// consistent graph containing every entity present at some point within
// [start, end), including connections of the present nodes that were valid
// at start even if untouched inside the window. Entities take their last
// state within the window.
func (s *Store) GetWindow(start, end model.Timestamp) (*memgraph.Graph, error) {
	return s.GetWindowContext(context.Background(), start, end)
}

// GetWindowContext is GetWindow honouring ctx cancellation.
func (s *Store) GetWindowContext(ctx context.Context, start, end model.Timestamp) (*memgraph.Graph, error) {
	tg, err := s.GetTemporalGraphContext(ctx, start, end)
	if err != nil {
		return nil, err
	}
	return windowFromTemporal(tg, start, end), nil
}

// windowFromTemporal projects a temporal graph onto its window union graph.
func windowFromTemporal(tg *memgraph.TGraph, start, end model.Timestamp) *memgraph.Graph {
	win := model.Interval{Start: start, End: end}
	g := memgraph.New()
	// Last version of each node present in the window.
	lastNode := map[model.NodeID]*model.Node{}
	tg.ForEachNodeVersion(func(n *model.Node) bool {
		if n.Valid.Overlaps(win) {
			lastNode[n.ID] = n
		}
		return true
	})
	for _, n := range lastNode {
		// Preserve the version's true start time so window consumers can
		// distinguish carried-over entities from ones created inside.
		_ = g.Apply(model.AddNode(n.Valid.Start, n.ID, n.Labels, n.Props))
	}
	// Relationships present in the window whose endpoints survive.
	lastRel := map[model.RelID]*model.Rel{}
	tg.ForEachRelVersion(func(r *model.Rel) bool {
		if r.Valid.Overlaps(win) {
			lastRel[r.ID] = r
		}
		return true
	})
	for _, r := range lastRel {
		if lastNode[r.Src] == nil || lastNode[r.Tgt] == nil {
			continue
		}
		_ = g.Apply(model.AddRel(r.Valid.Start, r.ID, r.Src, r.Tgt, r.Label, r.Props))
	}
	g.SetTimestamp(end - 1)
	return g
}
