package timestore

import (
	"cmp"
	"context"
	"fmt"

	"aion/internal/memgraph"
	"aion/internal/model"
)

// Every query takes a ctx and observes it at a bounded stride: one readahead
// batch of log replay or snapshot load.
//
// A query takes no store lock: the segment is fixed at Open, and its chain
// and fences are read under their leaf lock (segment.elems, startFence).

// GetDiff is GetDiffContext with context.Background(). It is the one read
// twin left: the frozen benchmark (benchmark/scratch.go) calls it, and
// ROADMAP item 9(iii) retires it with the next change to that benchmark.
func (s *Store) GetDiff(start, end model.Timestamp) ([]model.Update, error) {
	return s.GetDiffContext(context.Background(), start, end)
}

// GetDiffContext returns all graph updates with start <= ts < end in commit
// order (Table 1), streamed off the log from the fence nearest start.
func (s *Store) GetDiffContext(ctx context.Context, start, end model.Timestamp) ([]model.Update, error) {
	var out []model.Update
	err := s.ScanDiffContext(ctx, start, end, func(u model.Update) bool {
		out = append(out, u)
		return true
	})
	return out, err
}

// ScanDiffContext streams the updates with start <= ts < end to fn in
// commit order, stopping early if fn returns false.
func (s *Store) ScanDiffContext(ctx context.Context, start, end model.Timestamp, fn func(u model.Update) bool) error {
	if start >= end {
		return nil
	}
	return s.scanFrom(ctx, position{ts: start - 1, seq: seqComplete}, end, fn)
}

// before orders two stream positions.
func (p position) before(q position) bool {
	if p.ts != q.ts {
		return p.ts < q.ts
	}
	return p.seq < q.seq
}

// scanFrom is the one walk over the log: from the segment's startFence for
// from it numbers every record off the fence's position and hands those
// strictly after from, up to the first with timestamp >= end, to fn. Records
// at or before from (at most a fence stride, or the head of a chain element's
// window) are discarded unseen — fn counts only what it applies.
func (s *Store) scanFrom(ctx context.Context, from position, end model.Timestamp, fn func(u model.Update) bool) error {
	start := s.seg.startFence(from)
	cur := start.pos
	return s.replayWal(ctx, start.off, logEnd, func(_ int64, u model.Update) bool {
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

// GetGraphContext materializes the LPG snapshot valid at ts: fetch the
// closest base at or before ts — a cached graph or a chain element — and
// apply the forward changes from the log (Sec 4.3). It is ScanGraphsContext's
// one-step series, whose bound stops at MaxInt64. Both halves are
// cancellation points. The returned graph is private to the caller.
func (s *Store) GetGraphContext(ctx context.Context, ts model.Timestamp) (*memgraph.Graph, error) {
	var out *memgraph.Graph
	err := s.ScanGraphsContext(ctx, ts, ts, 1, func(g *memgraph.Graph) bool {
		out = g
		return false
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// CacheGraphContext is GetGraphContext for a caller that keeps the snapshot
// for later queries (aion.graph, Sec 5.2): a copy also enters the
// GraphStore, but only when the graph is complete at ts, ts being no later
// than the log's last timestamp when the replay began. The cache key carries
// no sequence, so a graph cached ahead of the log would stand for commits
// still to come.
func (s *Store) CacheGraphContext(ctx context.Context, ts model.Timestamp) (*memgraph.Graph, error) {
	s.mu.Lock()
	complete := ts <= s.lastTS
	s.mu.Unlock()
	g, err := s.GetGraphContext(ctx, ts)
	if err == nil && complete {
		s.gs.Put(g)
	}
	return g, err
}

// basePos returns a mutable graph at the closest base position <= ts
// together with that exact position: the later of the in-memory GraphStore's
// floor and the newest chain element on disk — falling back to the empty
// graph before all history.
//
// Graphs enter the GraphStore only when complete at their timestamp (the
// cache key carries no sequence), so a cached hit is always position
// (ts, seqComplete), and it wins over an element at the same timestamp.
func (s *Store) basePos(ctx context.Context, ts model.Timestamp) (*memgraph.Graph, position, error) {
	cached, cachedTS, ok := s.gs.Floor(ts)
	best := position{ts: -1, seq: seqComplete}
	if ok {
		best.ts = cachedTS
	}
	if chain, j := s.floorElem(ts); j >= 0 && best.before(chain[j].pos) {
		g, err := s.materializeElem(ctx, chain, j, cached)
		return g, chain[j].pos, err
	}
	if ok {
		return cached, best, nil
	}
	return memgraph.New(), best, nil
}

// ScanGraphsContext materializes the snapshot series at start, start+step,
// ..., up to end (Table 1: "getGraph(1993, 2023, 1-year) returns thirty
// snapshots") with one base fetch and a single range scan, lazily (footnote
// 4: "snapshots can be computed eagerly or lazily depending on the
// application"): each snapshot is handed to fn as it materializes and may be
// retained only by cloning; iteration stops early when fn returns false.
func (s *Store) ScanGraphsContext(ctx context.Context, start, end, step model.Timestamp, fn func(g *memgraph.Graph) bool) error {
	if step <= 0 {
		return fmt.Errorf("timestore: step must be positive")
	}
	if end < start {
		return fmt.Errorf("timestore: end %d before start %d", end, start)
	}
	g, pos, err := s.basePos(ctx, start)
	if err != nil {
		return err
	}
	steps := model.NewSteps(start, end, step)
	stopped := false
	emitThrough := func(upTo model.Timestamp) error {
		for next, ok := steps.Peek(); ok && next <= upTo; next, ok = steps.Peek() {
			if _, _, cerr := steps.Next(ctx); cerr != nil {
				return cerr
			}
			g.SetTimestamp(next)
			if !fn(g) {
				stopped = true
				return nil
			}
		}
		return nil
	}
	bound := end // the scan's exclusive bound, end+1 short of the wrap
	if end < model.TSInfinity {
		bound++
	}
	var derr error
	err = s.scanFrom(ctx, pos, bound, func(u model.Update) bool {
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

// GetWindowContext filters the graph history by a time window (Table 1): a
// consistent graph of every entity with a version in [start, end), each in
// its last state before end. It is one pass over a copy-on-write clone of the
// graph at start: every update inside the window is united into it
// (memgraph.Graph.Unite), so adjacency lists hold the base's order, then the
// log's, and two calls answer alike — except one that its commit goes on to
// delete the entity after, which opened no version. A point window, start == end, is the
// graph at start; a window that ends before it starts is empty.
func (s *Store) GetWindowContext(ctx context.Context, start, end model.Timestamp) (*memgraph.Graph, error) {
	if end < start {
		return memgraph.New(), nil
	}
	g, err := s.GetGraphContext(ctx, start)
	if err != nil {
		return nil, err
	}
	var commit []model.Update // the commit being read
	var uerr error
	err = s.scanFrom(ctx, position{ts: start, seq: seqComplete}, end, func(u model.Update) bool {
		if len(commit) > 0 && commit[0].TS != u.TS {
			uerr, commit = uniteCommit(g, commit), commit[:0]
		}
		commit = append(commit, u)
		return uerr == nil
	})
	if err == nil {
		err = cmp.Or(uerr, uniteCommit(g, commit))
	}
	if err != nil {
		return nil, err
	}
	g.SetTimestamp(max(start, end-1))
	return g, nil
}

// uniteCommit unites the updates of one commit into g, all but those the
// commit goes on to delete the entity after: the deletion ends the version
// such an update opens before it begins, and no version is empty.
func uniteCommit(g *memgraph.Graph, us []model.Update) error {
	deleted := map[int64]int{} // the index of each entity's last deletion
	for i, u := range us {
		if u.Kind == model.OpDeleteNode || u.Kind == model.OpDeleteRel {
			deleted[u.EntityKey()] = i
		}
	}
	for i, u := range us {
		if j, ok := deleted[u.EntityKey()]; ok && j > i {
			continue
		}
		if err := g.Unite(u); err != nil {
			return fmt.Errorf("timestore: window: %w", err)
		}
	}
	return nil
}
