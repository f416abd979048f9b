// Package incremental implements the three classes of incremental
// algorithms Aion supports (Sec 5.2): non-holistic aggregations (running
// AVG over a property, with stream-processing-style state), monotonic
// path-based algorithms (BFS and SSSP with the tag-and-reset technique of
// Kickstarter), and non-monotonic algorithms that converge independently of
// initialization (PageRank warm-started from the previous ranks, greedy
// colouring).
//
// Every algorithm has one shape: its constructor runs it on a full snapshot,
// and the result is a Stepper that takes in each getDiff batch between
// consecutive snapshots; a recompute is the constructor again.
// BFS and SSSP repair with the kernels of their full runs, algo.RelaxBFS and
// algo.RelaxSSSP.
package incremental

import (
	"aion/internal/algo"
	"aion/internal/memgraph"
	"aion/internal/model"
)

// Stepper is an algorithm's state over a snapshot series. ApplyDiff folds in
// the updates us, which g, the series' next snapshot, already holds.
type Stepper interface {
	ApplyDiff(g *memgraph.Graph, us []model.Update)
}

// grow extends s to n entries, the new ones fill.
func grow[T any](s []T, n model.NodeID, fill T) []T {
	for len(s) < int(n) {
		s = append(s, fill)
	}
	return s
}

// Avg maintains a running global average of a relationship property — a
// non-holistic aggregation needing only a counter and a sum over the active
// relationships, with no dependency tracking for deletions (Sec 6.6).
type Avg struct {
	prop   string
	sum    float64
	count  int64
	values map[model.RelID]float64 // current contribution per live rel
}

// NewAvg runs the average of the relationship property prop on g.
func NewAvg(g *memgraph.Graph, prop string) *Avg {
	a := &Avg{prop: prop, values: make(map[model.RelID]float64)}
	for rid := range g.MaxRelID() {
		if v, ok := g.RelProp(rid, a.prop); ok {
			a.add(rid, v.Float())
		}
	}
	return a
}

func (a *Avg) add(id model.RelID, v float64) {
	a.values[id] = v
	a.sum += v
	a.count++
}

func (a *Avg) remove(id model.RelID) {
	if v, ok := a.values[id]; ok {
		delete(a.values, id)
		a.sum -= v
		a.count--
	}
}

// ApplyDiff folds a batch of graph updates into the aggregate; it reads
// only us.
func (a *Avg) ApplyDiff(_ *memgraph.Graph, us []model.Update) {
	for _, u := range us {
		switch u.Kind {
		case model.OpAddRel:
			if v, ok := u.SetProps[a.prop]; ok {
				a.add(u.RelID, v.Float())
			}
		case model.OpDeleteRel:
			a.remove(u.RelID)
		case model.OpUpdateRel:
			if v, ok := u.SetProps[a.prop]; ok {
				a.remove(u.RelID)
				a.add(u.RelID, v.Float())
			}
			for _, k := range u.DelProps {
				if k == a.prop {
					a.remove(u.RelID)
				}
			}
		}
	}
}

// Value returns the current average (0 when no contributions exist).
func (a *Avg) Value() float64 {
	if a.count == 0 {
		return 0
	}
	return a.sum / float64(a.count)
}

// Count returns the number of contributing relationships.
func (a *Avg) Count() int64 { return a.count }

// BFS maintains hop distances from a source across snapshots using the tag
// and reset technique (Sec 5.2): deletions tag the nodes whose distance may
// depend on a removed edge, reset them, and re-propagate from the intact
// frontier; additions relax directly.
type BFS struct {
	src    model.NodeID
	levels []int32
}

// NewBFS runs BFS from src on g.
func NewBFS(g *memgraph.Graph, src model.NodeID) *BFS {
	return &BFS{src: src, levels: algo.BFS(g, src)}
}

// Levels returns the current distance vector indexed by sparse node id
// (algo.Unreachable where no path exists). Callers must not mutate it.
func (b *BFS) Levels() []int32 { return b.levels }

// ApplyDiff updates the distances after the updates in us have been applied
// to g (g is the post-diff snapshot).
func (b *BFS) ApplyDiff(g *memgraph.Graph, us []model.Update) {
	b.levels = grow(b.levels, g.MaxNodeID(), algo.Unreachable)
	var relaxFrom []model.NodeID
	var suspects []model.NodeID

	for _, u := range us {
		switch u.Kind {
		case model.OpAddRel:
			// A new edge u->v can only lower v's level; relax just that
			// edge and propagate from v if it improved (edge-local
			// relaxation — rescanning u's whole neighbourhood would make
			// addition-heavy diffs slower than recomputing).
			if lu := b.levels[u.Src]; lu != algo.Unreachable {
				if lv := b.levels[u.Tgt]; lv == algo.Unreachable || lv > lu+1 {
					b.levels[u.Tgt] = lu + 1
					relaxFrom = append(relaxFrom, u.Tgt)
				}
			}
		case model.OpDeleteRel:
			// v's level may have depended on the deleted edge: tag it.
			if int(u.Tgt) < len(b.levels) && b.levels[u.Tgt] != algo.Unreachable {
				suspects = append(suspects, u.Tgt)
			}
		case model.OpDeleteNode:
			if int(u.NodeID) < len(b.levels) {
				b.levels[u.NodeID] = algo.Unreachable
			}
		case model.OpAddNode:
			b.levels = grow(b.levels, u.NodeID+1, algo.Unreachable)
			if u.NodeID == b.src {
				b.levels[b.src] = 0
				relaxFrom = append(relaxFrom, b.src)
			}
		}
	}

	boundary := tagAndReset(g, b.src, b.levels, algo.Unreachable, suspects,
		func(_ model.RelID, nb, v model.NodeID) bool { return b.levels[nb]+1 == b.levels[v] })
	algo.RelaxBFS(g, b.levels, append(relaxFrom, boundary...))
}

// tagAndReset is the deletion half of the path repairs (Sec 5.2). From the
// suspects it tags, transitively, every reached node but src that no
// untagged reached in-neighbour nb justifies (justifies(rid, nb, v), rid the
// edge nb→v), and resets it to unreached. Every reached out-neighbour of a
// tagged node is examined in turn: a value may have changed earlier in the
// same diff, so filtering by the old value would miss dependents, and
// over-tagging is safe where under-tagging is not. It returns the boundary
// to relax from: the reached in-neighbours of tagged nodes.
func tagAndReset[T comparable](g *memgraph.Graph, src model.NodeID, vals []T, unreached T, suspects []model.NodeID,
	justifies func(rid model.RelID, nb, v model.NodeID) bool) []model.NodeID {
	tagged := map[model.NodeID]bool{}
	for len(suspects) > 0 {
		v := suspects[0]
		suspects = suspects[1:]
		if tagged[v] || v == src || !g.HasNode(v) || vals[v] == unreached {
			continue
		}
		justified := false
		g.EachNeighbour(v, model.Incoming, func(rid model.RelID, nb model.NodeID) bool {
			justified = !tagged[nb] && vals[nb] != unreached && justifies(rid, nb, v)
			return !justified
		})
		if justified {
			continue
		}
		tagged[v] = true
		vals[v] = unreached
		g.EachNeighbour(v, model.Outgoing, func(_ model.RelID, nb model.NodeID) bool {
			if !tagged[nb] && vals[nb] != unreached {
				suspects = append(suspects, nb)
			}
			return true
		})
	}
	var boundary []model.NodeID
	for v := range tagged {
		g.EachNeighbour(v, model.Incoming, func(_ model.RelID, nb model.NodeID) bool {
			if vals[nb] != unreached {
				boundary = append(boundary, nb)
			}
			return true
		})
	}
	return boundary
}

// PageRank maintains ranks across snapshots by warm-starting the power
// iteration from the previous result — a non-monotonic algorithm that
// converges to the correct values independently of initialization
// (Sec 5.2), so consecutive snapshots need far fewer iterations.
type PageRank struct {
	opts  algo.PageRankOptions
	ranks map[model.NodeID]float64 // by sparse id, survives re-projection
	// LastIterations reports the iteration count of the most recent run.
	LastIterations int
}

// NewPageRank runs PageRank on g, cold, with the given options.
func NewPageRank(g *memgraph.Graph, opts algo.PageRankOptions) *PageRank {
	p := &PageRank{opts: opts}
	p.ApplyDiff(g, nil)
	return p
}

// ApplyDiff recomputes the ranks on g, warm-starting from the previous
// result where node identities persist; it reads only g. It executes
// directly on the dynamic graph representation — no CSR projection (Sec
// 5.2): for warm-started runs the projection cost would dominate the few
// iterations needed.
func (p *PageRank) ApplyDiff(g *memgraph.Graph, _ []model.Update) {
	p.ranks, p.LastIterations = algo.PageRankDynamic(g, p.ranks, p.opts)
}

// Top returns the node with the highest rank, the lowest id among equals,
// and its rank; -1 and 0 on an empty graph.
func (p *PageRank) Top() (model.NodeID, float64) {
	top, best := model.NodeID(-1), 0.0
	for id, r := range p.ranks {
		if top < 0 || r > best || r == best && id < top {
			top, best = id, r
		}
	}
	return top, best
}
