package lineagestore

import (
	"cmp"
	"context"
	"errors"
	"fmt"

	"aion/internal/btree"
	"aion/internal/enc"
	"aion/internal/model"
)

// cancelStride is how many scanned index entries pass between cooperative
// ctx checks: frequent enough that a cancelled query stops in microseconds,
// sparse enough that the check never shows up in a scan profile.
const cancelStride = 256

// strided is the cooperative check of a loop's n-th pass: ctx's error every
// cancelStride passes, nil in between.
func strided(ctx context.Context, n int) error {
	if n%cancelStride != 0 {
		return nil
	}
	return ctx.Err()
}

// errCorrupt reports an index entry the write path cannot have left — a key
// no enc.Key* function writes, a value too short for its head bytes, a delta
// chain that does not lead back to a full record: tree pages carry no
// checksum, so a read may meet one.
var errCorrupt = errors.New("lineagestore: corrupt index entry")

// lineage is what differs between the two version trees — which tree, and
// how its records become entity versions — so that one chain walker and one
// delta writer serve nodes and relationships alike.
type lineage[E comparable] struct {
	name  string
	tree  func(*Store) *btree.Tree
	fresh func(id int64, base model.Update) E // a version holding only base's state; it takes over base's property map
	fold  func(model.Update, E)               // applies a delta in place
	clone func(E) E
	valid func(E) *model.Interval
	full  func(model.Timestamp, E) model.Update // the materialized record of a version
}

var nodeLineage = lineage[*model.Node]{
	name: "node",
	tree: func(s *Store) *btree.Tree { return s.nodes },
	fresh: func(id int64, base model.Update) *model.Node {
		n := &model.Node{ID: model.NodeID(id), Props: base.SetProps, Valid: model.Interval{Start: base.TS, End: model.TSInfinity}}
		base.SetProps = nil
		base.ApplyToNode(n)
		return n
	},
	fold:  model.Update.ApplyToNode,
	clone: (*model.Node).Clone,
	valid: func(n *model.Node) *model.Interval { return &n.Valid },
	full: func(ts model.Timestamp, n *model.Node) model.Update {
		return model.AddNode(ts, n.ID, n.Labels, n.Props)
	},
}

var relLineage = lineage[*model.Rel]{
	name: "rel",
	tree: func(s *Store) *btree.Tree { return s.rels },
	fresh: func(id int64, base model.Update) *model.Rel {
		r := &model.Rel{ID: model.RelID(id), Src: base.Src, Tgt: base.Tgt, Label: base.RelLabel, Props: base.SetProps,
			Valid: model.Interval{Start: base.TS, End: model.TSInfinity}}
		base.SetProps = nil
		base.ApplyToRel(r)
		return r
	},
	fold:  model.Update.ApplyToRel,
	clone: (*model.Rel).Clone,
	valid: func(r *model.Rel) *model.Interval { return &r.Valid },
	full: func(ts model.Timestamp, r *model.Rel) model.Update {
		return model.AddRel(ts, r.ID, r.Src, r.Tgt, r.Label, r.Props)
	},
}

// cell parses the version-tree cell under c: the entity and timestamp of its
// key, the delta-chain position and the version record of its value, which
// enc.DecodeVersion completes with the first two. The record aliases the page.
func cell(c *btree.Cursor) (id int64, ts model.Timestamp, pos int, rec []byte, err error) {
	id, ts, ok := enc.ParseKeyVersion(c.Key())
	v := c.Value()
	if !ok || len(v) < 2 {
		return 0, 0, 0, nil, errCorrupt
	}
	return id, ts, int(v[0]), v[1:], nil
}

// versions appends to out the versions of entity id that overlap [start, end)
// — with start == end, the one valid at that instant — in one pass over c:
// a single descent to the newest record at or before start, back along the
// delta chain to the full record it hangs from, forward folding the deltas
// (Sec 4.4), and on across the records inside the window. A version starts
// at its record's timestamp and ends at the entity's next record, whatever
// its kind ("the end time can be inferred by updates that follow", Sec 4.2):
// the cell the walk stops on. c may sit anywhere; the caller closes it.
func versions[E comparable](ctx context.Context, s *Store, l *lineage[E], c *btree.Cursor, id int64, start, end model.Timestamp, out []E) ([]E, error) {
	var (
		kb        [18]byte
		cur, none E
	)
	if c.SeekFloor(enc.AppendKeyVersion(kb[:0], id, start)) {
		kid, kts, _, rec, err := cell(c)
		if err != nil {
			return nil, err
		}
		if deleted, delta := enc.PeekState(rec); kid == id && !deleted {
			back := 0
			for ; delta && kts != 0; back++ {
				if err := strided(ctx, back+1); err != nil {
					return nil, err
				}
				if !c.Prev() {
					return nil, cmp.Or(c.Err(), errCorrupt)
				}
				if kid, kts, _, rec, err = cell(c); err != nil || kid != id {
					return nil, errCorrupt
				}
				_, delta = enc.PeekState(rec)
			}
			u, err := s.codec.DecodeVersion(rec, id, kts)
			if err != nil {
				return nil, err
			}
			cur = l.fresh(id, u)
			for ; back > 0; back-- {
				if err := strided(ctx, back); err != nil {
					return nil, err
				}
				if !c.Next() {
					return nil, cmp.Or(c.Err(), errCorrupt)
				}
				if _, kts, _, rec, err = cell(c); err != nil {
					return nil, err
				}
				if u, err = s.codec.DecodeVersion(rec, id, kts); err != nil {
					return nil, err
				}
				l.fold(u, cur)
				l.valid(cur).Start = kts
			}
		}
	}
	window := model.Interval{Start: start, End: end}
	for n := 1; c.Next(); n++ {
		if err := strided(ctx, n); err != nil {
			return nil, err
		}
		kid, kts, _, rec, err := cell(c)
		if err != nil {
			return nil, err
		}
		if kid != id {
			break
		}
		if cur != none {
			l.valid(cur).End = kts
		}
		if kts >= end {
			break
		}
		if cur != none && l.valid(cur).Overlaps(window) {
			out = append(out, cur)
		}
		deleted, delta := enc.PeekState(rec)
		switch {
		case deleted:
			cur = none
		case !delta: // insertion, re-insertion, or materialized state
			u, err := s.codec.DecodeVersion(rec, id, kts)
			if err != nil {
				return nil, err
			}
			cur = l.fresh(id, u)
		case cur != none:
			u, err := s.codec.DecodeVersion(rec, id, kts)
			if err != nil {
				return nil, err
			}
			cur = l.clone(cur)
			*l.valid(cur) = model.Interval{Start: kts, End: model.TSInfinity}
			l.fold(u, cur)
		}
	}
	if err := c.Err(); err != nil {
		return nil, err
	}
	if cur != none && (start == end || l.valid(cur).Overlaps(window)) {
		out = append(out, cur)
	}
	return out, nil
}

// history is the Table 1 call on one entity: its versions between start
// (inclusive) and end (exclusive), or with start == end the single version
// valid at that instant, if any. One descent, one cursor.
func history[E comparable](ctx context.Context, s *Store, l *lineage[E], id int64, start, end model.Timestamp) ([]E, error) {
	if end < start {
		return nil, fmt.Errorf("lineagestore: %w: [%d, %d)", model.ErrInvalidInterval, start, end)
	}
	c := l.tree(s).Cursor()
	defer c.Close()
	return versions(ctx, s, l, &c, id, start, end, nil)
}

// GetNodeContext returns the node's history between start (inclusive) and
// end (exclusive), one entry per version (Table 1). With start == end it
// returns the single version valid at that instant, if any. The walk over
// the window's records checks ctx every cancelStride entries.
func (s *Store) GetNodeContext(ctx context.Context, id model.NodeID, start, end model.Timestamp) ([]*model.Node, error) {
	return history(ctx, s, &nodeLineage, int64(id), start, end)
}

// GetRelationshipContext returns the relationship's history between start
// and end (Table 1); start == end returns the single version at that instant.
func (s *Store) GetRelationshipContext(ctx context.Context, id model.RelID, start, end model.Timestamp) ([]*model.Rel, error) {
	return history(ctx, s, &relLineage, int64(id), start, end)
}

// member is one relationship of a neighbour group: the entries of a
// neighbour index that share both endpoints.
type member struct {
	rel  model.RelID
	live bool
}

// appendGroup appends the group's relationships to dst, all or the live ones.
func appendGroup(dst []model.RelID, group []member, liveOnly bool) []model.RelID {
	for _, m := range group {
		if m.live || !liveOnly {
			dst = append(dst, m.rel)
		}
	}
	return dst
}

// scanNeighbours appends to dst, in index order, the relationships tree holds
// for node a with an event at or before through — only those live at through
// when liveOnly. A node's entries are contiguous and grouped by neighbour, a
// relationship's all lie in one group in time order, so each group resolves
// in a slice that rarely leaves the stack. skipLoops leaves out a's
// self-loops: the other index holds the same entries for them.
func scanNeighbours(ctx context.Context, tree *btree.Tree, dst []model.RelID, a model.NodeID, through model.Timestamp, liveOnly, skipLoops bool) ([]model.RelID, error) {
	var (
		kb    [9]byte
		gb    [8]member
		group = gb[:0]
		nb    model.NodeID // the group's neighbour
	)
	c := tree.Cursor()
	defer c.Close()
	c.SeekFloor(enc.AppendKeyNeighPrefix(kb[:0], a)) // the bare prefix sorts just below a's first entry
	for n := 1; c.Next(); n++ {
		if err := strided(ctx, n); err != nil {
			return nil, err
		}
		ka, b, ets, rel, ok := enc.ParseKeyNeigh4(c.Key())
		if !ok {
			return nil, errCorrupt
		}
		if ka != a {
			break
		}
		if b != nb {
			dst, group, nb = appendGroup(dst, group, liveOnly), group[:0], b
		}
		if ets > through || skipLoops && b == a {
			continue // entries per neighbour are time-ordered, the next neighbour's start over
		}
		i := 0
		for i < len(group) && group[i].rel != rel {
			i++
		}
		if i == len(group) { // a relationship's place is its first entry's, a tombstone's too
			group = append(group, member{rel: rel})
		}
		group[i].live = !enc.ParseNeighValue(c.Value())
	}
	return appendGroup(dst, group, liveOnly), c.Err()
}

// incident is scanNeighbours over the index or indexes direction d names
// (Sec 4.4): out first, each relationship once.
func (s *Store) incident(ctx context.Context, dst []model.RelID, id model.NodeID, d model.Direction, through model.Timestamp, liveOnly bool) ([]model.RelID, error) {
	var err error
	if d == model.Outgoing || d == model.Both {
		if dst, err = scanNeighbours(ctx, s.out, dst, id, through, liveOnly, false); err != nil {
			return nil, err
		}
	}
	if d == model.Incoming || d == model.Both {
		dst, err = scanNeighbours(ctx, s.in, dst, id, through, liveOnly, d == model.Both)
	}
	return dst, err
}

// GetRelationshipsContext returns a node's (in/out) relationship history
// between start and end (Table 1): one inner slice per incident relationship,
// holding its versions in the interval. With start == end it returns the
// relationships live at that instant, one version each. Both the
// neighbour-index scans and the per-relationship version walks are
// cancellation points. The candidates — live at the instant, or with any
// event before end — come from the neighbour indexes; their versions are
// then read through one cursor on the relationship tree, one descent each,
// into one backing slice, the cursor yielding to the writer every cancelStride.
func (s *Store) GetRelationshipsContext(ctx context.Context, id model.NodeID, d model.Direction, start, end model.Timestamp) ([][]*model.Rel, error) {
	if end < start {
		return nil, fmt.Errorf("lineagestore: %w: [%d, %d)", model.ErrInvalidInterval, start, end)
	}
	var idb [16]model.RelID
	// At an instant: the relationships live then. Over a window: those with any event before its end.
	ids, err := s.incident(ctx, idb[:0], id, d, max(start, end-1), start == end)
	if err != nil || len(ids) == 0 {
		return nil, err
	}
	out, flat := make([][]*model.Rel, 0, len(ids)), make([]*model.Rel, 0, len(ids))
	c := s.rels.Cursor()
	defer c.Close()
	for i, rid := range ids {
		if err := strided(ctx, i); err != nil {
			return nil, err
		}
		if i%cancelStride == cancelStride-1 {
			c.Yield() // a hub must not hold the cascade out of the tree for its whole length
		}
		n := len(flat)
		if flat, err = versions(ctx, s, &relLineage, &c, int64(rid), start, end, flat); err != nil {
			return nil, err
		}
		if len(flat) > n {
			out = append(out, flat[n:len(flat):len(flat)])
		}
	}
	return out, nil
}

// ExpandContext implements Alg 1: the n-hop neighbourhood of a node at time
// t, translated directly to index lookups. The result holds one slice per hop
// with per-hop deduplication, exactly as in the paper's pseudocode. The
// frontier loop checks ctx before expanding each node, so even a densely
// connected neighbourhood stops within one node's worth of index lookups.
func (s *Store) ExpandContext(ctx context.Context, id model.NodeID, d model.Direction, hops int, ts model.Timestamp) ([][]*model.Node, error) {
	result := make([][]*model.Node, hops)
	queue := []model.NodeID{id}
	for hop := 0; hop < hops && len(queue) > 0; hop++ {
		visited := map[model.NodeID]bool{} // S: visited in current hop
		var next []model.NodeID
		for _, cid := range queue {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			rels, err := s.GetRelationshipsContext(ctx, cid, d, ts, ts)
			if err != nil {
				return nil, err
			}
			if result[hop], next, err = s.expandOne(ctx, cid, d, ts, rels, visited, result[hop], next); err != nil {
				return nil, err
			}
		}
		queue = next
	}
	return result, nil
}

// expandOne appends to nodes the states at ts of cid's neighbours over rels
// that this hop has not visited yet and that exist then — their validity
// left open, as in the snapshot the TimeStore would expand in — and their
// ids to next, reading them through one cursor on the node tree.
func (s *Store) expandOne(ctx context.Context, cid model.NodeID, d model.Direction, ts model.Timestamp, rels [][]*model.Rel,
	visited map[model.NodeID]bool, nodes []*model.Node, next []model.NodeID) ([]*model.Node, []model.NodeID, error) {
	c := s.nodes.Cursor()
	defer c.Close()
	for i, vs := range rels {
		if i%cancelStride == cancelStride-1 {
			c.Yield() // as in GetRelationshipsContext
		}
		r := vs[0]
		nid := r.Tgt
		if d == model.Incoming || (d == model.Both && r.Tgt == cid && r.Src != cid) {
			nid = r.Src
		}
		if visited[nid] {
			continue
		}
		visited[nid] = true
		n := len(nodes)
		var err error
		if nodes, err = versions(ctx, s, &nodeLineage, &c, int64(nid), ts, ts, nodes); err != nil {
			return nil, nil, err
		}
		if len(nodes) > n {
			nodes[n].Valid.End = model.TSInfinity // as a snapshot at ts reports it
			next = append(next, nid)
		}
	}
	return nodes, next, nil
}
