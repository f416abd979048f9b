// Package refmodel is the brute-force reference model of the temporal LPG:
// the update stream held in memory, every Table 1 call answered by replaying
// it from zero. It exists to be obviously right, not fast, and only tests
// import it. It is the one oracle every store answers to: the LineageStore's
// entity reads, under the contract it states here once; and the TimeStore's
// global reads — the LPG at a timestamp (Graph), the updates of a range
// (Diff), a window's union graph (Window) and the relationship versions a
// range holds whole, the hops of a temporal path (ClosedRels).
//
// Interval contract. Validity is closed-open, [Start, End), in commit
// timestamps. Every update of an entity starts a version: Valid.Start is that
// update's timestamp — the version's start, not the entity's creation — and
// Valid.End is the timestamp of the entity's next update of any kind (the
// next version's start, or the tombstone), TSInfinity if there is none. A
// point query (start == end = t) returns the version with Start <= t < End;
// a range query returns, oldest first, every version with Start < end and
// start < End, so a version that began before the window is reported with its
// own Start, unclipped. A deleted entity has no version until it is created
// again. The stream carries at most one update per entity and timestamp: the
// LineageStore keys a version by (entity, timestamp), so two changes of one
// entity in one commit collapse there.
//
// Order contract. GetRelationships lists relationships as the neighbour
// indexes do: outgoing before incoming (a self-loop once, among the
// outgoing), then by neighbour id, then by the timestamp of the
// relationship's creation, then by relationship id.
package refmodel

import (
	"cmp"
	"slices"

	"aion/internal/model"
)

// Model is an update stream in commit order.
type Model struct {
	us []model.Update
	// nodes and rels cache every version of every entity for the reads that
	// hand out copies of them, Window and ClosedRels; Apply drops them.
	nodes map[model.NodeID][]*model.Node
	rels  map[model.RelID][]*model.Rel
}

// Apply appends updates; timestamps must not decrease.
func (m *Model) Apply(us ...model.Update) {
	m.us = append(m.us, us...)
	m.nodes, m.rels = nil, nil
}

// Diff returns the updates with start <= timestamp < end, in commit order.
func (m *Model) Diff(start, end model.Timestamp) []model.Update {
	var out []model.Update
	for _, u := range m.us {
		if start <= u.TS && u.TS < end {
			out = append(out, u)
		}
	}
	return out
}

// Graph returns the LPG valid at ts — every update with a timestamp up to ts
// applied from zero — as the insertions that build it, all stamped ts: nodes
// by id, then relationships by id, each with the labels (in the order they
// were added) and properties it has then. That is the form a snapshot is
// exported and persisted in, so the two compare record for record.
func (m *Model) Graph(ts model.Timestamp) []model.Update {
	nodes, rels := map[model.NodeID]*model.Node{}, map[model.RelID]*model.Rel{}
	for _, u := range m.us {
		if u.TS > ts {
			break
		}
		switch u.Kind {
		case model.OpAddNode:
			nodes[u.NodeID] = &model.Node{ID: u.NodeID}
			u.ApplyToNode(nodes[u.NodeID])
		case model.OpUpdateNode:
			u.ApplyToNode(nodes[u.NodeID])
		case model.OpDeleteNode:
			delete(nodes, u.NodeID)
		case model.OpAddRel:
			rels[u.RelID] = &model.Rel{ID: u.RelID, Src: u.Src, Tgt: u.Tgt, Label: u.RelLabel}
			u.ApplyToRel(rels[u.RelID])
		case model.OpUpdateRel:
			u.ApplyToRel(rels[u.RelID])
		case model.OpDeleteRel:
			delete(rels, u.RelID)
		}
	}
	out := make([]model.Update, 0, len(nodes)+len(rels))
	for _, id := range sortedKeys(nodes) {
		out = append(out, model.AddNode(ts, id, nodes[id].Labels, nodes[id].Props))
	}
	for _, id := range sortedKeys(rels) {
		r := rels[id]
		out = append(out, model.AddRel(ts, id, r.Src, r.Tgt, r.Label, r.Props))
	}
	return out
}

func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// Window returns the window [start, end) in Graph's form: the last version of
// every entity with a version in it under the contract's selection — so the
// point window at t is Graph(t) — stamped with the window's last instant,
// end-1, or t for the point window. A window that ends before it starts is
// empty.
func (m *Model) Window(start, end model.Timestamp) []model.Update {
	if end < start {
		return nil
	}
	at := max(start, end-1)
	nodes, rels := m.everyVersion()
	var out []model.Update
	for _, id := range sortedKeys(nodes) {
		if vs := in(nodes[id], func(n *model.Node) model.Interval { return n.Valid }, start, end); len(vs) > 0 {
			n := vs[len(vs)-1]
			out = append(out, model.AddNode(at, id, slices.Clone(n.Labels), n.Props.Clone()))
		}
	}
	for _, id := range sortedKeys(rels) {
		if vs := in(rels[id], func(r *model.Rel) model.Interval { return r.Valid }, start, end); len(vs) > 0 {
			r := vs[len(vs)-1]
			out = append(out, model.AddRel(at, id, r.Src, r.Tgt, r.Label, r.Props.Clone()))
		}
	}
	return out
}

// ClosedRels returns copies of the relationship versions that begin and end
// inside [from, to) — from <= Start and End < to — by End, then id: the hops a
// temporal path may take over the range.
func (m *Model) ClosedRels(from, to model.Timestamp) []*model.Rel {
	_, rels := m.everyVersion()
	var out []*model.Rel
	for _, id := range sortedKeys(rels) {
		for _, r := range rels[id] {
			if from <= r.Valid.Start && r.Valid.End < to {
				out = append(out, r.Clone())
			}
		}
	}
	slices.SortStableFunc(out, func(a, b *model.Rel) int { return cmp.Compare(a.Valid.End, b.Valid.End) })
	return out
}

// in keeps the versions the contract selects for [start, end).
func in[E any](vs []E, valid func(E) model.Interval, start, end model.Timestamp) []E {
	var out []E
	for _, v := range vs {
		keep := valid(v).Overlaps(model.Interval{Start: start, End: end})
		if start == end {
			keep = valid(v).Contains(start)
		}
		if keep {
			out = append(out, v)
		}
	}
	return out
}

// versions replays every version each entity ever had, oldest first, from
// the updates keep admits.
func (m *Model) versions(keep func(u model.Update) bool) (map[model.NodeID][]*model.Node, map[model.RelID][]*model.Rel) {
	nodes, rels := map[model.NodeID][]*model.Node{}, map[model.RelID][]*model.Rel{}
	for _, u := range m.us {
		if !keep(u) {
			continue
		}
		if u.Kind.IsNodeOp() {
			vs := nodes[u.NodeID]
			var cur, next *model.Node // the live version, nil while the node does not exist; the one u opens
			if len(vs) > 0 && vs[len(vs)-1].Valid.End == model.TSInfinity {
				cur = vs[len(vs)-1]
				cur.Valid.End = u.TS
			}
			switch {
			case u.Kind == model.OpAddNode:
				next = &model.Node{ID: u.NodeID}
			case u.Kind == model.OpUpdateNode && cur != nil:
				next = cur.Clone()
			}
			if next != nil {
				next.Valid = model.Interval{Start: u.TS, End: model.TSInfinity}
				u.ApplyToNode(next)
				nodes[u.NodeID] = append(vs, next)
			}
			continue
		}
		vs := rels[u.RelID]
		var cur, next *model.Rel
		if len(vs) > 0 && vs[len(vs)-1].Valid.End == model.TSInfinity {
			cur = vs[len(vs)-1]
			cur.Valid.End = u.TS
		}
		switch {
		case u.Kind == model.OpAddRel:
			next = &model.Rel{ID: u.RelID, Src: u.Src, Tgt: u.Tgt, Label: u.RelLabel}
		case u.Kind == model.OpUpdateRel && cur != nil:
			next = cur.Clone()
		}
		if next != nil {
			next.Valid = model.Interval{Start: u.TS, End: model.TSInfinity}
			u.ApplyToRel(next)
			rels[u.RelID] = append(vs, next)
		}
	}
	return nodes, rels
}

// nodeVersions replays every version node id ever had.
func (m *Model) nodeVersions(id model.NodeID) []*model.Node {
	nodes, _ := m.versions(func(u model.Update) bool { return u.Kind.IsNodeOp() && u.NodeID == id })
	return nodes[id]
}

// relVersions replays every version relationship id ever had.
func (m *Model) relVersions(id model.RelID) []*model.Rel {
	_, rels := m.versions(func(u model.Update) bool { return !u.Kind.IsNodeOp() && u.RelID == id })
	return rels[id]
}

// everyVersion is versions of the whole stream, cached until the next Apply.
func (m *Model) everyVersion() (map[model.NodeID][]*model.Node, map[model.RelID][]*model.Rel) {
	if m.nodes == nil {
		m.nodes, m.rels = m.versions(func(model.Update) bool { return true })
	}
	return m.nodes, m.rels
}

// GetNode returns node id's versions in [start, end), or with start == end
// the one valid at that instant.
func (m *Model) GetNode(id model.NodeID, start, end model.Timestamp) []*model.Node {
	return in(m.nodeVersions(id), func(n *model.Node) model.Interval { return n.Valid }, start, end)
}

// GetRelationship is GetNode for a relationship.
func (m *Model) GetRelationship(id model.RelID, start, end model.Timestamp) []*model.Rel {
	return in(m.relVersions(id), func(r *model.Rel) model.Interval { return r.Valid }, start, end)
}

// GetRelationships returns, per relationship incident to id in direction d
// that has a version in [start, end) (or at the instant), those versions, in
// the order contract's order.
func (m *Model) GetRelationships(id model.NodeID, d model.Direction, start, end model.Timestamp) [][]*model.Rel {
	type incident struct {
		incoming bool
		nb       model.NodeID
		created  model.Timestamp
		rel      model.RelID
	}
	var found []incident
	seen := map[model.RelID]bool{}
	for _, u := range m.us {
		if u.Kind != model.OpAddRel || seen[u.RelID] {
			continue
		}
		switch {
		case u.Src == id && d != model.Incoming:
			found = append(found, incident{false, u.Tgt, u.TS, u.RelID})
		case u.Tgt == id && d != model.Outgoing:
			found = append(found, incident{true, u.Src, u.TS, u.RelID})
		default:
			continue
		}
		seen[u.RelID] = true
	}
	slices.SortFunc(found, func(a, b incident) int {
		if a.incoming != b.incoming {
			return cmp.Compare(btoi(a.incoming), btoi(b.incoming))
		}
		return cmp.Or(cmp.Compare(a.nb, b.nb), cmp.Compare(a.created, b.created), cmp.Compare(a.rel, b.rel))
	})
	var out [][]*model.Rel
	for _, f := range found {
		if vs := m.GetRelationship(f.rel, start, end); len(vs) > 0 {
			out = append(out, vs)
		}
	}
	return out
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Expand is Alg 1 over the model: per hop, the not yet visited neighbours at
// ts of the previous hop's nodes, in GetRelationships order. It reports node
// states as a snapshot at ts does: Valid.End is left open.
func (m *Model) Expand(id model.NodeID, d model.Direction, hops int, ts model.Timestamp) [][]*model.Node {
	result := make([][]*model.Node, hops)
	queue := []model.NodeID{id}
	for hop := 0; hop < hops; hop++ {
		visited := map[model.NodeID]bool{}
		var next []model.NodeID
		for _, cid := range queue {
			for _, vs := range m.GetRelationships(cid, d, ts, ts) {
				nb := vs[0].Tgt
				if d == model.Incoming || d == model.Both && vs[0].Src != cid {
					nb = vs[0].Src
				}
				if visited[nb] {
					continue
				}
				visited[nb] = true
				if ns := m.GetNode(nb, ts, ts); len(ns) > 0 {
					ns[0].Valid.End = model.TSInfinity
					result[hop], next = append(result[hop], ns[0]), append(next, nb)
				}
			}
		}
		queue = next
	}
	return result
}
