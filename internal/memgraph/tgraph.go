package memgraph

import (
	"fmt"
	"sort"

	"aion/internal/model"
)

// TGraph is the temporal variant of the dynamic LPG (Sec 5.2): the node and
// relationship vectors store lists of entity versions instead of single
// objects, and the in-/out-neighbourhood vectors store the full
// neighbourhood history. Every modification is a record append at the end
// of the respective lists, so data is ordered by timestamp and history
// access costs are logarithmic.
type TGraph struct {
	nodes [][]*model.Node // version chains, ordered by Valid.Start
	rels  [][]*model.Rel
	out   [][]NeighEvent
	in    [][]NeighEvent
	span  model.Interval // the time range the temporal graph covers
}

// NeighEvent is one adjacency history record: relationship rid appeared
// (Added=true) or disappeared at TS.
type NeighEvent struct {
	Rel   model.RelID
	TS    model.Timestamp
	Added bool
}

// NewTGraph returns an empty temporal graph covering the given span.
func NewTGraph(span model.Interval) *TGraph { return &TGraph{span: span} }

// Span returns the time range the temporal graph covers.
func (tg *TGraph) Span() model.Interval { return tg.span }

func (tg *TGraph) growNodes(id model.NodeID) {
	if int(id) < len(tg.nodes) {
		return
	}
	n := int(id) + 1
	if n < 2*len(tg.nodes) {
		n = 2 * len(tg.nodes)
	}
	nodes := make([][]*model.Node, n)
	copy(nodes, tg.nodes)
	tg.nodes = nodes
	out := make([][]NeighEvent, n)
	copy(out, tg.out)
	tg.out = out
	in := make([][]NeighEvent, n)
	copy(in, tg.in)
	tg.in = in
}

func (tg *TGraph) growRels(id model.RelID) {
	if int(id) < len(tg.rels) {
		return
	}
	n := int(id) + 1
	if n < 2*len(tg.rels) {
		n = 2 * len(tg.rels)
	}
	rels := make([][]*model.Rel, n)
	copy(rels, tg.rels)
	tg.rels = rels
}

// Apply appends one update to the version chains. Updates must arrive in
// timestamp order; a property/label modification closes the previous
// version and appends a new one (deletion followed by insertion, Sec 3).
func (tg *TGraph) Apply(u model.Update) error {
	switch u.Kind {
	case model.OpAddNode:
		tg.growNodes(u.NodeID)
		if last := tg.lastNode(u.NodeID); last != nil && last.Valid.End == model.TSInfinity {
			return fmt.Errorf("%w: node %d at ts %d", model.ErrExists, u.NodeID, u.TS)
		}
		n := &model.Node{ID: u.NodeID, Valid: model.Interval{Start: u.TS, End: model.TSInfinity}}
		u.ApplyToNode(n)
		tg.nodes[u.NodeID] = append(tg.nodes[u.NodeID], n)

	case model.OpDeleteNode:
		last := tg.lastNode(u.NodeID)
		if last == nil || last.Valid.End != model.TSInfinity {
			return fmt.Errorf("%w: node %d at ts %d", model.ErrNotFound, u.NodeID, u.TS)
		}
		last.Valid.End = u.TS

	case model.OpUpdateNode:
		last := tg.lastNode(u.NodeID)
		if last == nil || last.Valid.End != model.TSInfinity {
			return fmt.Errorf("%w: node %d at ts %d", model.ErrNotFound, u.NodeID, u.TS)
		}
		last.Valid.End = u.TS
		next := nextVersion(last, u)
		next.Valid = model.Interval{Start: u.TS, End: model.TSInfinity}
		u.ApplyToNode(next)
		tg.nodes[u.NodeID] = append(tg.nodes[u.NodeID], next)

	case model.OpAddRel:
		tg.growRels(u.RelID)
		tg.growNodes(u.Src)
		tg.growNodes(u.Tgt)
		if last := tg.lastRel(u.RelID); last != nil && last.Valid.End == model.TSInfinity {
			return fmt.Errorf("%w: rel %d at ts %d", model.ErrExists, u.RelID, u.TS)
		}
		r := &model.Rel{ID: u.RelID, Src: u.Src, Tgt: u.Tgt, Label: u.RelLabel,
			Valid: model.Interval{Start: u.TS, End: model.TSInfinity}}
		u.ApplyToRel(r)
		tg.rels[u.RelID] = append(tg.rels[u.RelID], r)
		tg.out[u.Src] = append(tg.out[u.Src], NeighEvent{Rel: u.RelID, TS: u.TS, Added: true})
		tg.in[u.Tgt] = append(tg.in[u.Tgt], NeighEvent{Rel: u.RelID, TS: u.TS, Added: true})

	case model.OpDeleteRel:
		last := tg.lastRel(u.RelID)
		if last == nil || last.Valid.End != model.TSInfinity {
			return fmt.Errorf("%w: rel %d at ts %d", model.ErrNotFound, u.RelID, u.TS)
		}
		last.Valid.End = u.TS
		tg.out[last.Src] = append(tg.out[last.Src], NeighEvent{Rel: u.RelID, TS: u.TS, Added: false})
		tg.in[last.Tgt] = append(tg.in[last.Tgt], NeighEvent{Rel: u.RelID, TS: u.TS, Added: false})

	case model.OpUpdateRel:
		last := tg.lastRel(u.RelID)
		if last == nil || last.Valid.End != model.TSInfinity {
			return fmt.Errorf("%w: rel %d at ts %d", model.ErrNotFound, u.RelID, u.TS)
		}
		last.Valid.End = u.TS
		next := last.Clone()
		next.Valid = model.Interval{Start: u.TS, End: model.TSInfinity}
		u.ApplyToRel(next)
		tg.rels[u.RelID] = append(tg.rels[u.RelID], next)

	default:
		return fmt.Errorf("memgraph: unknown op %v", u.Kind)
	}
	if u.TS >= tg.span.End && tg.span.End != model.TSInfinity {
		tg.span.End = u.TS + 1
	}
	return nil
}

func (tg *TGraph) lastNode(id model.NodeID) *model.Node {
	if int(id) >= len(tg.nodes) || len(tg.nodes[id]) == 0 {
		return nil
	}
	vs := tg.nodes[id]
	return vs[len(vs)-1]
}

func (tg *TGraph) lastRel(id model.RelID) *model.Rel {
	if int(id) >= len(tg.rels) || len(tg.rels[id]) == 0 {
		return nil
	}
	vs := tg.rels[id]
	return vs[len(vs)-1]
}

// NodeAt returns the node version valid at ts, or nil. Versions are ordered
// by start time, so the lookup is a binary search (logarithmic history
// access).
func (tg *TGraph) NodeAt(id model.NodeID, ts model.Timestamp) *model.Node {
	if int(id) >= len(tg.nodes) {
		return nil
	}
	vs := tg.nodes[id]
	i := sort.Search(len(vs), func(i int) bool { return vs[i].Valid.Start > ts })
	if i == 0 {
		return nil
	}
	if v := vs[i-1]; v.Valid.Contains(ts) {
		return v
	}
	return nil
}

// RelAt returns the relationship version valid at ts, or nil.
func (tg *TGraph) RelAt(id model.RelID, ts model.Timestamp) *model.Rel {
	if int(id) >= len(tg.rels) {
		return nil
	}
	vs := tg.rels[id]
	i := sort.Search(len(vs), func(i int) bool { return vs[i].Valid.Start > ts })
	if i == 0 {
		return nil
	}
	if v := vs[i-1]; v.Valid.Contains(ts) {
		return v
	}
	return nil
}

// NodeHistory returns all versions of a node overlapping [start, end).
func (tg *TGraph) NodeHistory(id model.NodeID, start, end model.Timestamp) []*model.Node {
	if int(id) >= len(tg.nodes) {
		return nil
	}
	var hist []*model.Node
	for _, v := range tg.nodes[id] {
		if v.Valid.Overlaps(model.Interval{Start: start, End: end}) {
			hist = append(hist, v)
		}
	}
	return hist
}

// RelHistory returns all versions of a relationship overlapping [start, end).
func (tg *TGraph) RelHistory(id model.RelID, start, end model.Timestamp) []*model.Rel {
	if int(id) >= len(tg.rels) {
		return nil
	}
	var hist []*model.Rel
	for _, v := range tg.rels[id] {
		if v.Valid.Overlaps(model.Interval{Start: start, End: end}) {
			hist = append(hist, v)
		}
	}
	return hist
}

// RelsAt returns the relationships incident to a node in the given
// direction that are live at ts.
func (tg *TGraph) RelsAt(id model.NodeID, d model.Direction, ts model.Timestamp) []*model.Rel {
	if int(id) >= len(tg.nodes) {
		return nil
	}
	var out []*model.Rel
	seen := map[model.RelID]bool{}
	collect := func(events []NeighEvent) {
		for _, e := range events {
			if e.TS > ts {
				break // events are time-ordered
			}
			if seen[e.Rel] {
				continue
			}
			if r := tg.RelAt(e.Rel, ts); r != nil {
				seen[e.Rel] = true
				out = append(out, r)
			}
		}
	}
	if d == model.Outgoing || d == model.Both {
		collect(tg.out[id])
	}
	if d == model.Incoming || d == model.Both {
		collect(tg.in[id]) // seen is shared so self-loops are not doubled
	}
	return out
}

// ForEachNodeVersion invokes fn for every node version in the graph.
func (tg *TGraph) ForEachNodeVersion(fn func(n *model.Node) bool) {
	for _, vs := range tg.nodes {
		for _, v := range vs {
			if !fn(v) {
				return
			}
		}
	}
}

// ForEachRelVersion invokes fn for every relationship version in the graph.
func (tg *TGraph) ForEachRelVersion(fn func(r *model.Rel) bool) {
	for _, vs := range tg.rels {
		for _, v := range vs {
			if !fn(v) {
				return
			}
		}
	}
}

// VersionCounts returns the total number of node and relationship versions.
func (tg *TGraph) VersionCounts() (nodes, rels int) {
	for _, vs := range tg.nodes {
		nodes += len(vs)
	}
	for _, vs := range tg.rels {
		rels += len(vs)
	}
	return nodes, rels
}

// Snapshot materializes the regular LPG valid at ts.
func (tg *TGraph) Snapshot(ts model.Timestamp) *Graph {
	g := New()
	for _, vs := range tg.nodes {
		for _, v := range vs {
			if v.Valid.Contains(ts) {
				_ = g.Apply(model.AddNode(v.Valid.Start, v.ID, v.Labels, v.Props))
				break
			}
		}
	}
	for _, vs := range tg.rels {
		for _, v := range vs {
			if v.Valid.Contains(ts) {
				_ = g.Apply(model.AddRel(v.Valid.Start, v.ID, v.Src, v.Tgt, v.Label, v.Props))
				break
			}
		}
	}
	g.SetTimestamp(ts)
	return g
}
