// Package raphtory re-implements the storage and retrieval strategy of
// Raphtory (Steer et al.), the fine-grained in-memory baseline of the
// paper's evaluation: the complete graph history is kept in memory as
// per-entity update vectors, updates stream in without transactions, and
//
//   - point lookups filter an entity's updates by timestamp after locating
//     them through in-memory arrays (fast, O(|U_R^n|) per node);
//   - global snapshots require an all-history scan over every update
//     followed by a per-node visibility filter (slow, O(|U|); Table 4).
//
// Like the original, the model does not support multigraphs: a second
// relationship between the same (src, tgt) pair is dropped at load time
// (the paper reports Raphtory loading only 42 % / 79 % of WikiTalk /
// DBPedia for this reason).
package raphtory

import (
	"aion/internal/memgraph"
	"aion/internal/model"
)

// relEvent is one adjacency history record of a node.
type relEvent struct {
	ts    model.Timestamp
	rel   model.RelID
	other model.NodeID
	out   bool // direction from the owning node's perspective
	added bool
}

// nodeEvent is one node history record.
type nodeEvent struct {
	ts    model.Timestamp
	added bool
	props model.Properties
}

type relInfo struct {
	src, tgt model.NodeID
	label    string
	props    model.Properties
	events   []struct {
		ts    model.Timestamp
		added bool
	}
}

// Graph is a Raphtory-style in-memory temporal graph.
type Graph struct {
	nodeEvents map[model.NodeID][]nodeEvent
	adj        map[model.NodeID][]relEvent
	rels       map[model.RelID]*relInfo
	edgeKey    map[[2]model.NodeID]model.RelID // multigraph restriction
	skipped    int64
}

// New creates an empty graph.
func New() *Graph {
	return &Graph{
		nodeEvents: make(map[model.NodeID][]nodeEvent),
		adj:        make(map[model.NodeID][]relEvent),
		rels:       make(map[model.RelID]*relInfo),
		edgeKey:    make(map[[2]model.NodeID]model.RelID),
	}
}

// Ingest streams one update into the history (no transactional guarantees,
// matching the original's data-stream ingestion).
func (g *Graph) Ingest(u model.Update) {
	switch u.Kind {
	case model.OpAddNode:
		g.nodeEvents[u.NodeID] = append(g.nodeEvents[u.NodeID],
			nodeEvent{ts: u.TS, added: true, props: u.SetProps})
	case model.OpDeleteNode:
		g.nodeEvents[u.NodeID] = append(g.nodeEvents[u.NodeID], nodeEvent{ts: u.TS})
	case model.OpUpdateNode:
		// Treated as a re-addition carrying the new property state.
		g.nodeEvents[u.NodeID] = append(g.nodeEvents[u.NodeID],
			nodeEvent{ts: u.TS, added: true, props: u.SetProps})
	case model.OpAddRel:
		key := [2]model.NodeID{u.Src, u.Tgt}
		if existing, ok := g.edgeKey[key]; ok && existing != u.RelID {
			g.skipped++ // multigraph edge: unsupported, dropped
			return
		}
		g.edgeKey[key] = u.RelID
		ri := g.rels[u.RelID]
		if ri == nil {
			ri = &relInfo{src: u.Src, tgt: u.Tgt, label: u.RelLabel, props: u.SetProps}
			g.rels[u.RelID] = ri
		}
		ri.events = append(ri.events, struct {
			ts    model.Timestamp
			added bool
		}{u.TS, true})
		g.adj[u.Src] = append(g.adj[u.Src], relEvent{ts: u.TS, rel: u.RelID, other: u.Tgt, out: true, added: true})
		g.adj[u.Tgt] = append(g.adj[u.Tgt], relEvent{ts: u.TS, rel: u.RelID, other: u.Src, added: true})
	case model.OpDeleteRel:
		ri := g.rels[u.RelID]
		if ri == nil {
			return // was a skipped multigraph edge
		}
		ri.events = append(ri.events, struct {
			ts    model.Timestamp
			added bool
		}{u.TS, false})
		g.adj[ri.src] = append(g.adj[ri.src], relEvent{ts: u.TS, rel: u.RelID, other: ri.tgt, out: true})
		g.adj[ri.tgt] = append(g.adj[ri.tgt], relEvent{ts: u.TS, rel: u.RelID, other: ri.src})
	case model.OpUpdateRel:
		if ri := g.rels[u.RelID]; ri != nil {
			if ri.props == nil {
				ri.props = model.Properties{}
			}
			for k, v := range u.SetProps {
				ri.props[k] = v
			}
		}
	}
}

// IngestAll streams a batch of updates.
func (g *Graph) IngestAll(us []model.Update) {
	for _, u := range us {
		g.Ingest(u)
	}
}

// LoadedFraction reports the fraction of relationship additions retained.
func (g *Graph) LoadedFraction() float64 {
	total := int64(len(g.edgeKey)) + g.skipped
	if total == 0 {
		return 1
	}
	return float64(len(g.edgeKey)) / float64(total)
}

// nodeAliveAt scans a node's events linearly to decide visibility at ts —
// the "expensive checks to validate whether graph entities are visible at a
// specific timestamp" of Sec 6.2.
func (g *Graph) nodeAliveAt(id model.NodeID, ts model.Timestamp) bool {
	alive := false
	for _, e := range g.nodeEvents[id] {
		if e.ts > ts {
			break
		}
		alive = e.added
	}
	return alive
}

// relAliveAt decides a relationship's visibility at ts by scanning the
// adjacency histories of both its endpoints (cost 2|U_R^n|, Table 4).
func (g *Graph) relAliveAt(ri *relInfo, id model.RelID, ts model.Timestamp) bool {
	if !g.nodeAliveAt(ri.src, ts) || !g.nodeAliveAt(ri.tgt, ts) {
		return false
	}
	alive := false
	for _, e := range g.adj[ri.src] {
		if e.ts > ts {
			break
		}
		if e.rel == id {
			alive = e.added
		}
	}
	return alive
}

// GetRelationship returns the relationship's state at ts, or nil.
func (g *Graph) GetRelationship(id model.RelID, ts model.Timestamp) *model.Rel {
	ri, ok := g.rels[id]
	if !ok || !g.relAliveAt(ri, id, ts) {
		return nil
	}
	return &model.Rel{ID: id, Src: ri.src, Tgt: ri.tgt, Label: ri.label, Props: ri.props,
		Valid: model.Interval{Start: ri.events[0].ts, End: model.TSInfinity}}
}

// GetNode returns the node's state at ts, or nil.
func (g *Graph) GetNode(id model.NodeID, ts model.Timestamp) *model.Node {
	if !g.nodeAliveAt(id, ts) {
		return nil
	}
	var props model.Properties
	for _, e := range g.nodeEvents[id] {
		if e.ts > ts {
			break
		}
		if e.added && e.props != nil {
			props = e.props
		}
	}
	return &model.Node{ID: id, Props: props}
}

// Neighbours returns the live neighbour relationships of a node at ts by a
// linear scan over the node's adjacency history.
func (g *Graph) Neighbours(id model.NodeID, d model.Direction, ts model.Timestamp) []*model.Rel {
	state := map[model.RelID]bool{}
	var order []model.RelID
	for _, e := range g.adj[id] {
		if e.ts > ts {
			break
		}
		if d == model.Outgoing && !e.out {
			continue
		}
		if d == model.Incoming && e.out {
			continue
		}
		if e.added && !state[e.rel] {
			order = append(order, e.rel)
		}
		state[e.rel] = e.added
	}
	var out []*model.Rel
	seen := map[model.RelID]bool{}
	for _, rid := range order {
		if state[rid] && !seen[rid] {
			seen[rid] = true
			if r := g.GetRelationship(rid, ts); r != nil {
				out = append(out, r)
			}
		}
	}
	return out
}

// NHop expands the n-hop neighbourhood at ts with per-hop deduplication
// (mirroring Alg 1 for a fair Fig 8 comparison).
func (g *Graph) NHop(id model.NodeID, d model.Direction, hops int, ts model.Timestamp) [][]model.NodeID {
	result := make([][]model.NodeID, hops)
	queue := []model.NodeID{id}
	for hop := 0; hop < hops; hop++ {
		visited := map[model.NodeID]bool{}
		var next []model.NodeID
		for _, cid := range queue {
			for _, r := range g.Neighbours(cid, d, ts) {
				nb := r.Tgt
				if nb == cid {
					nb = r.Src
				}
				if d == model.Incoming {
					nb = r.Src
				}
				if visited[nb] {
					continue
				}
				visited[nb] = true
				if g.nodeAliveAt(nb, ts) {
					result[hop] = append(result[hop], nb)
					next = append(next, nb)
				}
			}
		}
		queue = next
		if len(queue) == 0 {
			break
		}
	}
	return result
}

// Snapshot materializes the full graph at ts with an all-history scan over
// every entity's updates — the expensive global-query path of Sec 6.2.
func (g *Graph) Snapshot(ts model.Timestamp) *memgraph.Graph {
	out := memgraph.New()
	for id := range g.nodeEvents {
		if n := g.GetNode(id, ts); n != nil {
			_ = out.Apply(model.AddNode(0, n.ID, n.Labels, n.Props))
		}
	}
	for id, ri := range g.rels {
		if g.relAliveAt(ri, id, ts) {
			_ = out.Apply(model.AddRel(0, id, ri.src, ri.tgt, ri.label, ri.props))
		}
	}
	out.SetTimestamp(ts)
	return out
}
