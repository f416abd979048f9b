package memgraph

import (
	"fmt"

	"aion/internal/model"
)

// TGraph is the temporal variant of the dynamic LPG (Sec 5.2): the node and
// relationship vectors store lists of entity versions instead of single
// objects. Every modification is a record append at the end of the
// respective list, so data is ordered by timestamp. It is read whole — by
// version (ForEachNodeVersion, ForEachRelVersion) or as the LPG at an instant
// (Snapshot); the Sec 5.2 neighbourhood-history vectors are not kept, since
// per-entity history reads are the LineageStore's.
type TGraph struct {
	nodes vec[[]*model.Node] // version chains, ordered by Valid.Start
	rels  vec[[]*model.Rel]
	span  model.Interval // the time range the temporal graph covers
}

// NewTGraph returns an empty temporal graph covering the given span.
func NewTGraph(span model.Interval) *TGraph { return &TGraph{span: span} }

// Span returns the time range the temporal graph covers.
func (tg *TGraph) Span() model.Interval { return tg.span }

// push appends x to entry i's list in v.
func push[T any](v *vec[[]T], i int, x T) {
	c, j := v.slot(i)
	c.v[j] = append(c.v[j], x)
}

// Apply appends one update to the version chains. Updates must arrive in
// timestamp order; a property/label modification closes the previous
// version and appends a new one (deletion followed by insertion, Sec 3).
func (tg *TGraph) Apply(u model.Update) error {
	switch u.Kind {
	case model.OpAddNode:
		if last := tg.lastNode(u.NodeID); last != nil && last.Valid.End == model.TSInfinity {
			return fmt.Errorf("%w: node %d at ts %d", model.ErrExists, u.NodeID, u.TS)
		}
		n := &model.Node{ID: u.NodeID, Valid: model.Interval{Start: u.TS, End: model.TSInfinity}}
		u.ApplyToNode(n)
		push(&tg.nodes, int(u.NodeID), n)

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
		push(&tg.nodes, int(u.NodeID), next)

	case model.OpAddRel:
		if last := tg.lastRel(u.RelID); last != nil && last.Valid.End == model.TSInfinity {
			return fmt.Errorf("%w: rel %d at ts %d", model.ErrExists, u.RelID, u.TS)
		}
		r := &model.Rel{ID: u.RelID, Src: u.Src, Tgt: u.Tgt, Label: u.RelLabel,
			Valid: model.Interval{Start: u.TS, End: model.TSInfinity}}
		u.ApplyToRel(r)
		push(&tg.rels, int(u.RelID), r)

	case model.OpDeleteRel:
		last := tg.lastRel(u.RelID)
		if last == nil || last.Valid.End != model.TSInfinity {
			return fmt.Errorf("%w: rel %d at ts %d", model.ErrNotFound, u.RelID, u.TS)
		}
		last.Valid.End = u.TS

	case model.OpUpdateRel:
		last := tg.lastRel(u.RelID)
		if last == nil || last.Valid.End != model.TSInfinity {
			return fmt.Errorf("%w: rel %d at ts %d", model.ErrNotFound, u.RelID, u.TS)
		}
		last.Valid.End = u.TS
		next := last.Clone()
		next.Valid = model.Interval{Start: u.TS, End: model.TSInfinity}
		u.ApplyToRel(next)
		push(&tg.rels, int(u.RelID), next)

	default:
		return fmt.Errorf("memgraph: unknown op %v", u.Kind)
	}
	if u.TS >= tg.span.End && tg.span.End != model.TSInfinity {
		tg.span.End = u.TS + 1
	}
	return nil
}

func (tg *TGraph) lastNode(id model.NodeID) *model.Node {
	vs := tg.nodes.get(int(id))
	if len(vs) == 0 {
		return nil
	}
	return vs[len(vs)-1]
}

func (tg *TGraph) lastRel(id model.RelID) *model.Rel {
	vs := tg.rels.get(int(id))
	if len(vs) == 0 {
		return nil
	}
	return vs[len(vs)-1]
}

// ForEachNodeVersion invokes fn for every node version in the graph.
func (tg *TGraph) ForEachNodeVersion(fn func(n *model.Node) bool) {
	eachVersion(&tg.nodes, fn)
}

// ForEachRelVersion invokes fn for every relationship version in the graph.
func (tg *TGraph) ForEachRelVersion(fn func(r *model.Rel) bool) {
	eachVersion(&tg.rels, fn)
}

// eachVersion calls fn with every version of every chain in v, in id order,
// until fn returns false.
func eachVersion[T any](v *vec[[]T], fn func(x T) bool) {
	v.each(func(vs []T) bool {
		for _, x := range vs {
			if !fn(x) {
				return false
			}
		}
		return true
	})
}

// VersionCounts returns the total number of node and relationship versions.
func (tg *TGraph) VersionCounts() (nodes, rels int) {
	tg.ForEachNodeVersion(func(*model.Node) bool { nodes++; return true })
	tg.ForEachRelVersion(func(*model.Rel) bool { rels++; return true })
	return nodes, rels
}

// Snapshot materializes the regular LPG valid at ts.
func (tg *TGraph) Snapshot(ts model.Timestamp) *Graph {
	g := New()
	tg.ForEachNodeVersion(func(v *model.Node) bool {
		if v.Valid.Contains(ts) {
			_ = g.Apply(model.AddNode(v.Valid.Start, v.ID, v.Labels, v.Props))
		}
		return true
	})
	tg.ForEachRelVersion(func(v *model.Rel) bool {
		if v.Valid.Contains(ts) {
			_ = g.Apply(model.AddRel(v.Valid.Start, v.ID, v.Src, v.Tgt, v.Label, v.Props))
		}
		return true
	})
	g.SetTimestamp(ts)
	return g
}
