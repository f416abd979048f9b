// Package memgraph implements Aion's compute-efficient in-memory dynamic
// LPG representation (Sec 5.2). The design follows Sortledton: four vectors
// — materialized nodes, materialized relationships, and per-node in- and
// out-neighbourhood id-vectors — giving O(1) entity insertion/update and
// neighbourhood access. Neighbourhood vectors store relationship IDs only;
// endpoints are resolved with an O(1) lookup in the relationship vector
// (one of the paper's memory optimizations). Snapshots support cheap
// Copy-on-Write cloning à la Tegra, by the 256-entry chunk (vec.go).
package memgraph

import (
	"fmt"
	"slices"
	"sync/atomic"

	"aion/internal/model"
)

// Per-entity in-memory byte constants used for Table 3 accounting ("for
// Aion, we use around 60 B and 68 B for nodes and relationships, and 4 B
// for each entry stored in the in- and out-neighbourhood vectors").
const (
	NodeBytes       = 60
	RelBytes        = 68
	NeighEntryBytes = 4
)

// Graph is a mutable LPG snapshot. It is not safe for concurrent mutation;
// per the paper, parallel updates are key-partitioned at the execution
// layer and reads precede writes for analytics.
type Graph struct {
	nodes vec[*model.Node]
	rels  vec[*model.Rel]
	out   vec[[]model.RelID]
	in    vec[[]model.RelID]
	// cow is 1 while the vectors' directories are shared with a clone
	// parent/child. Accessed atomically so concurrent readers may Clone
	// the same snapshot; mutation (Apply) still requires external
	// synchronization against both Clone and other Applies.
	cow uint32

	nodeCount int
	relCount  int
	ts        model.Timestamp // the time point this snapshot represents
}

// New returns an empty graph at timestamp 0.
func New() *Graph { return &Graph{} }

// Timestamp returns the time point the snapshot represents (the timestamp
// of the last applied update).
func (g *Graph) Timestamp() model.Timestamp { return g.ts }

// SetTimestamp overrides the snapshot's time point (used when replaying a
// diff up to a query timestamp with no update exactly at it).
func (g *Graph) SetTimestamp(ts model.Timestamp) { g.ts = ts }

// NodeCount returns the number of live nodes.
func (g *Graph) NodeCount() int { return g.nodeCount }

// RelCount returns the number of live relationships.
func (g *Graph) RelCount() int { return g.relCount }

// MaxNodeID returns the exclusive upper bound of the sparse node id domain:
// the largest node id the graph has seen + 1.
func (g *Graph) MaxNodeID() model.NodeID { return model.NodeID(g.nodes.n) }

// Node returns the node with the given id, or nil if absent.
func (g *Graph) Node(id model.NodeID) *model.Node { return g.nodes.get(int(id)) }

// Rel returns the relationship with the given id, or nil if absent.
func (g *Graph) Rel(id model.RelID) *model.Rel { return g.rels.get(int(id)) }

// Out returns the outgoing relationship ids of a node. The slice must not
// be mutated.
func (g *Graph) Out(id model.NodeID) []model.RelID { return g.out.get(int(id)) }

// In returns the incoming relationship ids of a node. The slice must not
// be mutated.
func (g *Graph) In(id model.NodeID) []model.RelID { return g.in.get(int(id)) }

// Degree returns the number of incident relationships in the direction.
func (g *Graph) Degree(id model.NodeID, d model.Direction) int {
	switch d {
	case model.Outgoing:
		return len(g.Out(id))
	case model.Incoming:
		return len(g.In(id))
	}
	return len(g.Out(id)) + len(g.In(id))
}

// Neighbours invokes fn for each (relationship, neighbour id) incident to
// id in the given direction; it stops early if fn returns false.
func (g *Graph) Neighbours(id model.NodeID, d model.Direction, fn func(r *model.Rel, nb model.NodeID) bool) {
	if d == model.Outgoing || d == model.Both {
		for _, rid := range g.Out(id) {
			r := g.Rel(rid)
			if !fn(r, r.Tgt) {
				return
			}
		}
	}
	if d == model.Incoming || d == model.Both {
		for _, rid := range g.In(id) {
			r := g.Rel(rid)
			if !fn(r, r.Src) {
				return
			}
		}
	}
}

// ForEachNode invokes fn for every live node in id order; it stops early if
// fn returns false.
func (g *Graph) ForEachNode(fn func(n *model.Node) bool) {
	g.nodes.each(func(n *model.Node) bool { return n == nil || fn(n) })
}

// ForEachRel invokes fn for every live relationship in id order; it stops
// early if fn returns false.
func (g *Graph) ForEachRel(fn func(r *model.Rel) bool) {
	g.rels.each(func(r *model.Rel) bool { return r == nil || fn(r) })
}

// unshare gives each vector a directory of its own if they are shared with a
// CoW sibling: the first write after a Clone copies n/256 chunk pointers, and
// each write then copies the chunk it touches (vec.slot).
func (g *Graph) unshare() {
	if atomic.LoadUint32(&g.cow) == 0 {
		return
	}
	g.nodes.unshare()
	g.rels.unshare()
	g.out.unshare()
	g.in.unshare()
	atomic.StoreUint32(&g.cow, 0)
}

// Clone returns a copy-on-write snapshot copy: O(1) until either side
// mutates, at which point the mutating side copies what it touches
// (Sec 5.2, "Aion uses Copy-on-Write similar to Tegra").
func (g *Graph) Clone() *Graph {
	atomic.StoreUint32(&g.cow, 1) // both sides must now copy before writing
	// Field by field: a copy of *g would read cow plainly while another reader
	// clones the same graph (two holders of hostdb's read lock).
	return &Graph{nodes: g.nodes, rels: g.rels, out: g.out, in: g.in, cow: 1,
		nodeCount: g.nodeCount, relCount: g.relCount, ts: g.ts}
}

// Apply folds one graph update into the snapshot, enforcing the update
// constraints of Sec 3.
func (g *Graph) Apply(u model.Update) error {
	_, err := g.ApplyShared(u, nil)
	return err
}

// ApplyShared is Apply for a graph that is being materialised at a state ref
// — unless nil, a handle nobody writes — has already been through. Where ref
// holds the incarnation of the entity that u produces (same id, created no
// later than this graph's time) with equal content, ref's object is installed
// instead of a new one, and shared reports that; an adjacency list stays a
// prefix of ref's for as long as it grows the way ref's did. The graph holds
// the same state either way, but for Valid.Start: a shared entity carries its
// creation time, which is at most Timestamp(), where a loaded one carries the
// stamp of its record.
func (g *Graph) ApplyShared(u model.Update, ref *Graph) (shared bool, err error) {
	g.unshare()
	at := max(g.ts, u.TS) // Timestamp() once u is applied
	switch u.Kind {
	case model.OpAddNode:
		if g.Node(u.NodeID) != nil {
			return false, fmt.Errorf("%w: node %d at ts %d", model.ErrExists, u.NodeID, u.TS)
		}
		// An add names its entity's whole content, so the reference is asked
		// before anything is allocated.
		n := ref.sameNode(u.NodeID, at, u.AddLabels, u.SetProps)
		if shared = n != nil && len(u.DelProps) == 0; !shared {
			n = &model.Node{ID: u.NodeID, Valid: model.Interval{Start: u.TS, End: model.TSInfinity}}
			u.ApplyToNode(n)
		}
		g.nodes.set(int(u.NodeID), n) // its adjacency lists are empty: it did not exist
		g.nodeCount++

	case model.OpDeleteNode:
		n := g.Node(u.NodeID)
		if n == nil {
			return false, fmt.Errorf("%w: node %d at ts %d", model.ErrNotFound, u.NodeID, u.TS)
		}
		if len(g.Out(u.NodeID)) > 0 || len(g.In(u.NodeID)) > 0 {
			return false, fmt.Errorf("%w: node %d at ts %d", model.ErrHasRels, u.NodeID, u.TS)
		}
		g.nodes.set(int(u.NodeID), nil)
		g.nodeCount--

	case model.OpUpdateNode:
		n := g.Node(u.NodeID)
		if n == nil {
			return false, fmt.Errorf("%w: node %d at ts %d", model.ErrNotFound, u.NodeID, u.TS)
		}
		c := nextVersion(n, u) // replace-on-write keeps CoW siblings intact
		u.ApplyToNode(c)
		if r := ref.sameNode(u.NodeID, at, c.Labels, c.Props); r != nil {
			c, shared = r, true
		}
		g.nodes.set(int(u.NodeID), c)

	case model.OpAddRel:
		if g.Node(u.Src) == nil || g.Node(u.Tgt) == nil {
			return false, fmt.Errorf("%w: rel %d (%d->%d) at ts %d", model.ErrDangling, u.RelID, u.Src, u.Tgt, u.TS)
		}
		if g.Rel(u.RelID) != nil {
			return false, fmt.Errorf("%w: rel %d at ts %d", model.ErrExists, u.RelID, u.TS)
		}
		r := ref.sameRel(u.RelID, at, u.Src, u.Tgt, u.RelLabel, u.SetProps)
		if shared = r != nil && len(u.DelProps) == 0; !shared {
			r = &model.Rel{ID: u.RelID, Src: u.Src, Tgt: u.Tgt, Label: u.RelLabel,
				Valid: model.Interval{Start: u.TS, End: model.TSInfinity}}
			u.ApplyToRel(r)
		}
		g.rels.set(int(u.RelID), r)
		var refOut, refIn *vec[[]model.RelID]
		if ref != nil {
			refOut, refIn = &ref.out, &ref.in
		}
		appendAdj(&g.out, refOut, u.Src, u.RelID)
		appendAdj(&g.in, refIn, u.Tgt, u.RelID)
		g.relCount++

	case model.OpDeleteRel:
		r := g.Rel(u.RelID)
		if r == nil {
			return false, fmt.Errorf("%w: rel %d at ts %d", model.ErrNotFound, u.RelID, u.TS)
		}
		g.rels.set(int(u.RelID), nil)
		removeAdj(&g.out, r.Src, u.RelID)
		removeAdj(&g.in, r.Tgt, u.RelID)
		g.relCount--

	case model.OpUpdateRel:
		r := g.Rel(u.RelID)
		if r == nil {
			return false, fmt.Errorf("%w: rel %d at ts %d", model.ErrNotFound, u.RelID, u.TS)
		}
		c := r.Clone()
		u.ApplyToRel(c)
		if s := ref.sameRel(u.RelID, at, c.Src, c.Tgt, c.Label, c.Props); s != nil {
			c, shared = s, true
		}
		g.rels.set(int(u.RelID), c)

	default:
		return false, fmt.Errorf("memgraph: unknown op %v", u.Kind)
	}
	g.ts = at
	return shared, nil
}

// sameNode returns ref's node id when it is the incarnation a graph at time at
// holds — created at or before at; it is live in ref, so not deleted since —
// and carries exactly these labels, in this order, and these properties: the
// object that may stand in for a node built from them. nil when ref is nil.
func (ref *Graph) sameNode(id model.NodeID, at model.Timestamp, labels []string, props model.Properties) *model.Node {
	if ref == nil {
		return nil
	}
	n := ref.Node(id)
	if n == nil || n.Valid.Start > at || !slices.Equal(n.Labels, labels) || !n.Props.Equal(props) {
		return nil
	}
	return n
}

// sameRel is sameNode for a relationship; its endpoints and label are content.
func (ref *Graph) sameRel(id model.RelID, at model.Timestamp, src, tgt model.NodeID, label string, props model.Properties) *model.Rel {
	if ref == nil {
		return nil
	}
	r := ref.Rel(id)
	if r == nil || r.Valid.Start > at || r.Src != src || r.Tgt != tgt || r.Label != label || !r.Props.Equal(props) {
		return nil
	}
	return r
}

// appendAdj appends rid to node id's list in lists (g.out or g.in). While the
// list grows the way the reference's did — refLists is its vector of the same
// direction, nil without a reference — it stays a prefix of that list, on the
// same array: nothing is allocated or copied, and the list is marked un-owned,
// as in a copied chunk, so the next write that departs copies it first.
func appendAdj(lists, refLists *vec[[]model.RelID], id model.NodeID, rid model.RelID) {
	c, j := lists.slot(int(id))
	l := c.v[j]
	if refLists != nil {
		r := refLists.get(int(id))
		if k := len(l); k < len(r) && r[k] == rid && (k == 0 || &l[0] == &r[0]) {
			c.v[j] = r[:k+1]
			c.own(j, false)
			return
		}
	}
	if !c.owns(j) {
		l = l[:len(l):len(l)] // so append copies it to an array of the graph's own
		c.own(j, true)
	}
	c.v[j] = append(l, rid)
}

// removeAdj removes rid from node id's list in lists, copying the list first
// unless the graph may mutate it in place.
func removeAdj(lists *vec[[]model.RelID], id model.NodeID, rid model.RelID) {
	c, j := lists.slot(int(id))
	if !c.owns(j) {
		c.v[j] = slices.Clone(c.v[j])
		c.own(j, true)
	}
	if i := slices.Index(c.v[j], rid); i >= 0 {
		c.v[j] = slices.Delete(c.v[j], i, i+1)
	}
}

// ShareChunks makes g hold ref's chunk wherever the two hold the same entries:
// the same entity objects, or the same adjacency arrays at the same lengths —
// what ApplyShared leaves wherever g's content is ref's — so that g keeps none
// of its own copies of them alive. ref must be a handle nobody writes, such as
// a Clone: then neither it nor the graph it was cloned from writes those
// chunks in place again, and g copies one before it writes to it.
func (g *Graph) ShareChunks(ref *Graph) {
	g.unshare()
	g.nodes.adopt(&ref.nodes, func(a, b *model.Node) bool { return a == b })
	g.rels.adopt(&ref.rels, func(a, b *model.Rel) bool { return a == b })
	sameList := func(a, b []model.RelID) bool { return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0]) }
	g.out.adopt(&ref.out, sameList)
	g.in.adopt(&ref.in, sameList)
}

// nextVersion is n.Clone() for the node update u about to be applied to the
// copy: the label slice stays shared with n unless u edits labels, because
// ApplyToNode edits them in place and most updates only set properties.
func nextVersion(n *model.Node, u model.Update) *model.Node {
	c := *n
	c.Props = n.Props.Clone()
	if len(u.AddLabels)+len(u.DelLabels) > 0 {
		c.Labels = slices.Clone(n.Labels)
	}
	return &c
}

// ApplyAll folds a batch of updates, stopping at the first error.
func (g *Graph) ApplyAll(us []model.Update) error {
	for _, u := range us {
		if err := g.Apply(u); err != nil {
			return err
		}
	}
	return nil
}

// Export re-expresses the snapshot as a sequence of insertion updates (all
// stamped with the snapshot timestamp), the form in which TimeStore
// serializes snapshots to disk.
func (g *Graph) Export() []model.Update {
	us := make([]model.Update, 0, g.nodeCount+g.relCount)
	g.ForEachNode(func(n *model.Node) bool {
		us = append(us, model.AddNode(g.ts, n.ID, n.Labels, n.Props))
		return true
	})
	g.ForEachRel(func(r *model.Rel) bool {
		us = append(us, model.AddRel(g.ts, r.ID, r.Src, r.Tgt, r.Label, r.Props))
		return true
	})
	return us
}

// ApproxBytes estimates the snapshot's in-memory footprint using the
// paper's Table 3 accounting constants plus property payloads.
func (g *Graph) ApproxBytes() int64 {
	var b int64
	g.ForEachNode(func(n *model.Node) bool {
		b += NodeBytes
		for _, l := range n.Labels {
			b += int64(len(l))
		}
		for k, v := range n.Props {
			b += int64(len(k) + v.ApproxBytes())
		}
		return true
	})
	g.ForEachRel(func(r *model.Rel) bool {
		b += RelBytes
		for k, v := range r.Props {
			b += int64(len(k) + v.ApproxBytes())
		}
		return true
	})
	// One entry in the out-vector and one in the in-vector per rel.
	b += 2 * NeighEntryBytes * int64(g.relCount)
	return b
}

// DenseMap translates the sparse node id domain [0, Vs) — where only a
// subset of ids refer to a valid node — to a dense domain [0, Vd) where all
// ids are valid, enabling vector-based graph algorithms (Sec 5.2).
type DenseMap struct {
	ToDense  map[model.NodeID]int32
	ToSparse []model.NodeID
}

// BuildDenseMap computes the sparse-to-dense node id translation.
func (g *Graph) BuildDenseMap() *DenseMap {
	dm := &DenseMap{
		ToDense:  make(map[model.NodeID]int32, g.nodeCount),
		ToSparse: make([]model.NodeID, 0, g.nodeCount),
	}
	g.ForEachNode(func(n *model.Node) bool {
		dm.ToDense[n.ID] = int32(len(dm.ToSparse))
		dm.ToSparse = append(dm.ToSparse, n.ID)
		return true
	})
	return dm
}

// Len returns the number of dense ids.
func (dm *DenseMap) Len() int { return len(dm.ToSparse) }
