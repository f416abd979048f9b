package lineagestore

import (
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

// errCorruptKey reports an index key no enc.Key* function can have written:
// tree pages carry no checksum, so a read may meet one.
var errCorruptKey = errors.New("lineagestore: corrupt index key")

// reconstructNode rebuilds the node state valid at ts by walking the delta
// chain backwards from the newest version <= ts to the nearest materialized
// record, then folding forward (Sec 4.4). It returns the chain position of
// the newest record and the state (nil if the node is absent at ts). Thanks
// to the materialization threshold the walk is bounded.
func (s *Store) reconstructNode(id model.NodeID, ts model.Timestamp) (int, *model.Node, error) {
	var chain []model.Update
	newestPos := 0
	seekTS := ts
	for {
		k, v, ok, err := s.nodes.SeekFloor(enc.KeyNode(id, seekTS))
		if err != nil {
			return 0, nil, err
		}
		if !ok {
			return 0, nil, nil
		}
		kid, kts, ok := enc.ParseKeyNode(k)
		if !ok {
			return 0, nil, errCorruptKey
		}
		if kid != id {
			return 0, nil, nil
		}
		u, err := s.codec.DecodeUpdate(v[1:])
		if err != nil {
			return 0, nil, err
		}
		if len(chain) == 0 {
			newestPos = int(v[0])
			if u.Kind == model.OpDeleteNode {
				return newestPos, nil, nil // tombstone is the latest <= ts
			}
		}
		chain = append(chain, u)
		if u.Kind == model.OpAddNode || kts == 0 {
			break // materialized record (or chain start) reached
		}
		seekTS = kts - 1
	}
	// Fold forward (chain is newest-first).
	base := chain[len(chain)-1]
	n := &model.Node{ID: id, Valid: model.Interval{Start: base.TS, End: model.TSInfinity}}
	base.ApplyToNode(n)
	for i := len(chain) - 2; i >= 0; i-- {
		chain[i].ApplyToNode(n)
		n.Valid.Start = chain[i].TS
	}
	return newestPos, n, nil
}

// reconstructRel is the relationship analogue of reconstructNode.
func (s *Store) reconstructRel(id model.RelID, ts model.Timestamp) (int, *model.Rel, error) {
	var chain []model.Update
	newestPos := 0
	seekTS := ts
	for {
		k, v, ok, err := s.rels.SeekFloor(enc.KeyRel(id, seekTS))
		if err != nil {
			return 0, nil, err
		}
		if !ok {
			return 0, nil, nil
		}
		kid, kts, ok := enc.ParseKeyRel(k)
		if !ok {
			return 0, nil, errCorruptKey
		}
		if kid != id {
			return 0, nil, nil
		}
		u, err := s.codec.DecodeUpdate(v[1:])
		if err != nil {
			return 0, nil, err
		}
		if len(chain) == 0 {
			newestPos = int(v[0])
			if u.Kind == model.OpDeleteRel {
				return newestPos, nil, nil
			}
		}
		chain = append(chain, u)
		if u.Kind == model.OpAddRel || kts == 0 {
			break
		}
		seekTS = kts - 1
	}
	base := chain[len(chain)-1]
	r := &model.Rel{ID: id, Src: base.Src, Tgt: base.Tgt, Label: base.RelLabel,
		Valid: model.Interval{Start: base.TS, End: model.TSInfinity}}
	base.ApplyToRel(r)
	for i := len(chain) - 2; i >= 0; i-- {
		chain[i].ApplyToRel(r)
		r.Valid.Start = chain[i].TS
	}
	return newestPos, r, nil
}

// reconstructNodeLocked / reconstructRelLocked are used on the write path
// (the caller already holds the write lock; the trees have their own
// locks, so these simply alias the read-path reconstruction).
func (s *Store) reconstructNodeLocked(id model.NodeID, ts model.Timestamp) (int, *model.Node, error) {
	return s.reconstructNode(id, ts)
}

func (s *Store) reconstructRelLocked(id model.RelID, ts model.Timestamp) (int, *model.Rel, error) {
	return s.reconstructRel(id, ts)
}

// GetNode returns the node's history between start (inclusive) and end
// (exclusive), one entry per version (Table 1). With start == end it
// returns the single version valid at that instant, if any.
func (s *Store) GetNode(id model.NodeID, start, end model.Timestamp) ([]*model.Node, error) {
	return s.GetNodeContext(context.Background(), id, start, end)
}

// GetNodeContext is GetNode honouring ctx cancellation: the version range
// scan checks ctx every cancelStride entries.
func (s *Store) GetNodeContext(ctx context.Context, id model.NodeID, start, end model.Timestamp) ([]*model.Node, error) {
	if end < start {
		return nil, fmt.Errorf("lineagestore: %w: [%d, %d)", model.ErrInvalidInterval, start, end)
	}
	_, cur, err := s.reconstructNode(id, start)
	if err != nil {
		return nil, err
	}
	if start == end {
		if cur == nil {
			return nil, nil
		}
		s.closeNodeInterval(id, cur)
		return []*model.Node{cur}, nil
	}
	var out []*model.Node
	emit := func(v *model.Node, until model.Timestamp) {
		v.Valid.End = until
		if v.Valid.Valid() && v.Valid.Overlaps(model.Interval{Start: start, End: end}) {
			out = append(out, v)
		}
	}
	scanned := 0
	err = s.nodes.Scan(enc.KeyNode(id, start+1), enc.KeyNode(id, end), func(k, v []byte) bool {
		if scanned++; scanned%cancelStride == 0 {
			if err = ctx.Err(); err != nil {
				return false
			}
		}
		u, derr := s.codec.DecodeUpdate(v[1:])
		if derr != nil {
			err = derr
			return false
		}
		switch u.Kind {
		case model.OpDeleteNode:
			if cur != nil {
				emit(cur, u.TS)
				cur = nil
			}
		case model.OpAddNode: // insertion, re-insertion, or materialized state
			if cur != nil {
				emit(cur, u.TS)
			}
			n := &model.Node{ID: id, Valid: model.Interval{Start: u.TS, End: model.TSInfinity}}
			u.ApplyToNode(n)
			cur = n
		case model.OpUpdateNode:
			if cur != nil {
				emit(cur, u.TS)
				next := cur.Clone()
				next.Valid = model.Interval{Start: u.TS, End: model.TSInfinity}
				u.ApplyToNode(next)
				cur = next
			}
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	if cur != nil {
		s.closeNodeInterval(id, cur)
		if cur.Valid.Valid() && cur.Valid.Overlaps(model.Interval{Start: start, End: end}) {
			out = append(out, cur)
		}
	}
	return out, nil
}

// closeNodeInterval fixes a version's open end time by probing for the next
// update past it ("the end time can be inferred by updates that follow",
// Sec 4.2).
func (s *Store) closeNodeInterval(id model.NodeID, n *model.Node) {
	s.nodes.Scan(enc.KeyNode(id, n.Valid.Start+1), enc.KeyNode(id, model.TSInfinity), func(k, v []byte) bool {
		if _, ts, ok := enc.ParseKeyNode(k); ok {
			n.Valid.End = ts
		}
		return false
	})
}

func (s *Store) closeRelInterval(id model.RelID, r *model.Rel) {
	s.rels.Scan(enc.KeyRel(id, r.Valid.Start+1), enc.KeyRel(id, model.TSInfinity), func(k, v []byte) bool {
		if _, ts, ok := enc.ParseKeyRel(k); ok {
			r.Valid.End = ts
		}
		return false
	})
}

// GetRelationship returns the relationship's history between start and end
// (Table 1); start == end returns the single version at that instant.
func (s *Store) GetRelationship(id model.RelID, start, end model.Timestamp) ([]*model.Rel, error) {
	return s.GetRelationshipContext(context.Background(), id, start, end)
}

// GetRelationshipContext is GetRelationship honouring ctx cancellation.
func (s *Store) GetRelationshipContext(ctx context.Context, id model.RelID, start, end model.Timestamp) ([]*model.Rel, error) {
	if end < start {
		return nil, fmt.Errorf("lineagestore: %w: [%d, %d)", model.ErrInvalidInterval, start, end)
	}
	_, cur, err := s.reconstructRel(id, start)
	if err != nil {
		return nil, err
	}
	if start == end {
		if cur == nil {
			return nil, nil
		}
		s.closeRelInterval(id, cur)
		return []*model.Rel{cur}, nil
	}
	var out []*model.Rel
	emit := func(v *model.Rel, until model.Timestamp) {
		v.Valid.End = until
		if v.Valid.Valid() && v.Valid.Overlaps(model.Interval{Start: start, End: end}) {
			out = append(out, v)
		}
	}
	scanned := 0
	err = s.rels.Scan(enc.KeyRel(id, start+1), enc.KeyRel(id, end), func(k, v []byte) bool {
		if scanned++; scanned%cancelStride == 0 {
			if err = ctx.Err(); err != nil {
				return false
			}
		}
		u, derr := s.codec.DecodeUpdate(v[1:])
		if derr != nil {
			err = derr
			return false
		}
		switch u.Kind {
		case model.OpDeleteRel:
			if cur != nil {
				emit(cur, u.TS)
				cur = nil
			}
		case model.OpAddRel:
			if cur != nil {
				emit(cur, u.TS)
			}
			r := &model.Rel{ID: id, Src: u.Src, Tgt: u.Tgt, Label: u.RelLabel,
				Valid: model.Interval{Start: u.TS, End: model.TSInfinity}}
			u.ApplyToRel(r)
			cur = r
		case model.OpUpdateRel:
			if cur != nil {
				emit(cur, u.TS)
				next := cur.Clone()
				next.Valid = model.Interval{Start: u.TS, End: model.TSInfinity}
				u.ApplyToRel(next)
				cur = next
			}
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	if cur != nil {
		s.closeRelInterval(id, cur)
		if cur.Valid.Valid() && cur.Valid.Overlaps(model.Interval{Start: start, End: end}) {
			out = append(out, cur)
		}
	}
	return out, nil
}

// liveRelsAt returns the ids of the relationships incident to a node in
// the given direction that are live at ts, via a range scan over the
// neighbour indexes (Sec 4.4).
func (s *Store) liveRelsAt(ctx context.Context, id model.NodeID, d model.Direction, ts model.Timestamp) ([]model.RelID, error) {
	live := map[model.RelID]bool{}
	var order []model.RelID
	scanned := 0
	var cerr error
	scan := func(tree *btree.Tree) error {
		err := tree.Scan(enc.KeyNeighPrefix(id), enc.KeyNeighPrefix(id+1), func(k, v []byte) bool {
			if scanned++; scanned%cancelStride == 0 {
				if cerr = ctx.Err(); cerr != nil {
					return false
				}
			}
			_, _, ets, rel, ok := enc.ParseKeyNeigh4(k)
			if !ok {
				cerr = errCorruptKey
				return false
			}
			if ets > ts {
				return true // later event; skip (entries per neighbour are time-ordered)
			}
			if enc.ParseNeighValue(v) {
				if live[rel] {
					live[rel] = false
				}
			} else {
				if !live[rel] {
					live[rel] = true
					order = append(order, rel)
				}
			}
			return true
		})
		if cerr != nil {
			return cerr
		}
		return err
	}
	if d == model.Outgoing || d == model.Both {
		if err := scan(s.out); err != nil {
			return nil, err
		}
	}
	if d == model.Incoming || d == model.Both {
		if err := scan(s.in); err != nil {
			return nil, err
		}
	}
	var out []model.RelID
	seen := map[model.RelID]bool{}
	for i, r := range order {
		if i%cancelStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if live[r] && !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	return out, nil
}

// GetRelationships returns a node's (in/out) relationship history between
// start and end (Table 1): one inner slice per incident relationship,
// holding its versions in the interval. With start == end it returns the
// relationships live at that instant, one version each.
func (s *Store) GetRelationships(id model.NodeID, d model.Direction, start, end model.Timestamp) ([][]*model.Rel, error) {
	return s.GetRelationshipsContext(context.Background(), id, d, start, end)
}

// GetRelationshipsContext is GetRelationships honouring ctx cancellation:
// both the neighbour-index collection scans and the per-relationship
// version loops are cancellation points.
func (s *Store) GetRelationshipsContext(ctx context.Context, id model.NodeID, d model.Direction, start, end model.Timestamp) ([][]*model.Rel, error) {
	if end < start {
		return nil, fmt.Errorf("lineagestore: %w: [%d, %d)", model.ErrInvalidInterval, start, end)
	}
	if start == end {
		ids, err := s.liveRelsAt(ctx, id, d, start)
		if err != nil {
			return nil, err
		}
		var out [][]*model.Rel
		for i, rid := range ids {
			if i%cancelStride == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			vs, err := s.GetRelationshipContext(ctx, rid, start, start)
			if err != nil {
				return nil, err
			}
			if len(vs) > 0 {
				out = append(out, vs)
			}
		}
		return out, nil
	}
	// Range: any relationship with an event before end whose validity
	// overlaps the window.
	candidates := map[model.RelID]bool{}
	var order []model.RelID
	scanned := 0
	var cerr error
	collect := func(tree *btree.Tree) error {
		err := tree.Scan(enc.KeyNeighPrefix(id), enc.KeyNeighPrefix(id+1), func(k, v []byte) bool {
			if scanned++; scanned%cancelStride == 0 {
				if cerr = ctx.Err(); cerr != nil {
					return false
				}
			}
			_, _, ets, rel, ok := enc.ParseKeyNeigh4(k)
			if !ok {
				cerr = errCorruptKey
				return false
			}
			if ets >= end {
				return true
			}
			if !candidates[rel] {
				candidates[rel] = true
				order = append(order, rel)
			}
			return true
		})
		if cerr != nil {
			return cerr
		}
		return err
	}
	if d == model.Outgoing || d == model.Both {
		if err := collect(s.out); err != nil {
			return nil, err
		}
	}
	if d == model.Incoming || d == model.Both {
		if err := collect(s.in); err != nil {
			return nil, err
		}
	}
	var out [][]*model.Rel
	for i, rid := range order {
		if i%cancelStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		vs, err := s.GetRelationshipContext(ctx, rid, start, end)
		if err != nil {
			return nil, err
		}
		if len(vs) > 0 {
			out = append(out, vs)
		}
	}
	return out, nil
}

// Expand implements Alg 1: the n-hop neighbourhood of a node at time t,
// translated directly to index lookups. The result holds one slice per hop
// with per-hop deduplication, exactly as in the paper's pseudocode.
func (s *Store) Expand(id model.NodeID, d model.Direction, hops int, ts model.Timestamp) ([][]*model.Node, error) {
	return s.ExpandContext(context.Background(), id, d, hops, ts)
}

// ExpandContext is Expand honouring ctx cancellation: the frontier loop
// checks ctx before expanding each node, so even a densely connected
// neighbourhood stops within one node's worth of index lookups.
func (s *Store) ExpandContext(ctx context.Context, id model.NodeID, d model.Direction, hops int, ts model.Timestamp) ([][]*model.Node, error) {
	result := make([][]*model.Node, hops)
	queue := []model.NodeID{id}
	for hop := 0; hop < hops; hop++ {
		visited := map[model.NodeID]bool{} // S: visited in current hop
		var next []model.NodeID
		for _, cid := range queue {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			relIDs, err := s.liveRelsAt(ctx, cid, d, ts)
			if err != nil {
				return nil, err
			}
			for _, rid := range relIDs {
				_, r, err := s.reconstructRel(rid, ts)
				if err != nil {
					return nil, err
				}
				if r == nil {
					continue
				}
				nid := r.Tgt
				if d == model.Incoming || (d == model.Both && r.Tgt == cid && r.Src != cid) {
					nid = r.Src
				} else if d == model.Both && r.Src == cid {
					nid = r.Tgt
				}
				if visited[nid] {
					continue
				}
				visited[nid] = true
				_, n, err := s.reconstructNode(nid, ts)
				if err != nil {
					return nil, err
				}
				if n != nil {
					result[hop] = append(result[hop], n)
					next = append(next, nid)
				}
			}
		}
		queue = next
		if len(queue) == 0 {
			break
		}
	}
	return result, nil
}
