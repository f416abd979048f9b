package lineagestore

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"

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
	fresh func(id int64, base model.Update) E // a version holding only base's state; it takes over base's labels and property map
	fold  func(model.Update, E)               // applies a delta in place
	clone func(E) E
	valid func(E) *model.Interval
	full  func(model.Timestamp, E) model.Update // the materialized record of a version
}

var nodeLineage = lineage[*model.Node]{
	name: "node",
	tree: func(s *Store) *btree.Tree { return s.nodes },
	fresh: func(id int64, base model.Update) *model.Node {
		n := &model.Node{ID: model.NodeID(id), Labels: base.AddLabels[:0], Props: base.SetProps, Valid: model.Interval{Start: base.TS, End: model.TSInfinity}}
		base.SetProps = nil
		base.ApplyToNode(n) // writes each label no further along than it reads it
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
	tree: func(s *Store) *btree.Tree { return s.outRels },
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

// entity is one lineage's place in its version tree: the prefix its keys
// share — (node) in the node tree, (src, rel) in the relationship tree — and
// the ids its records leave to the key.
type entity struct {
	id  int64
	src model.NodeID // a relationship's source; its records hold the target only
	kb  [18]byte
	n   uint8
}

func nodeEntity(id model.NodeID) entity {
	e := entity{id: int64(id)}
	e.n = uint8(len(enc.AppendKeyPrefix(e.kb[:0], int64(id))))
	return e
}

func relEntity(src model.NodeID, id model.RelID) entity {
	e := entity{id: int64(id), src: src}
	e.n = uint8(len(enc.AppendKeyPrefix(enc.AppendKeyPrefix(e.kb[:0], int64(src)), int64(id))))
	return e
}

// prefix returns the bytes every key of e starts with.
func (e *entity) prefix() []byte { return e.kb[:e.n] }

// cell parses the version-tree cell under c as one of e's: the timestamp of
// its key, the delta-chain position and the version record of its value,
// which enc.DecodeVersion completes with e. own is false, and the rest zero,
// for another entity's cell. The record aliases the page.
func cell(c *btree.Cursor, e *entity) (ts model.Timestamp, pos int, rec []byte, own bool, err error) {
	k, p := c.Key(), e.prefix()
	if !bytes.HasPrefix(k, p) {
		return 0, 0, nil, false, nil
	}
	ts, ok := enc.ParseKeyTS(k[len(p):])
	v := c.Value()
	if !ok || len(v) < 2 {
		return 0, 0, nil, false, errCorrupt
	}
	return ts, int(v[0]), v[1:], true, nil
}

// walk is a read's cursor on a version tree and the number of version
// records it decoded, which a profile reports.
type walk struct {
	btree.Cursor
	decoded int
}

// decode decodes one of e's records at ts.
func (w *walk) decode(s *Store, e *entity, rec []byte, ts model.Timestamp) (model.Update, error) {
	w.decoded++
	return s.codec.DecodeVersion(rec, e.src, e.id, ts)
}

// versions appends to out the versions of entity e that overlap [start, end)
// — with start == end, the one valid at that instant — in one pass over c:
// a single seek to the newest record at or before start, back along the
// delta chain to the full record it hangs from, forward folding the deltas
// (Sec 4.4), and on across the records inside the window. A version starts
// at its record's timestamp and ends at the entity's next record, whatever
// its kind ("the end time can be inferred by updates that follow", Sec 4.2):
// the cell the walk stops on. c may sit anywhere; the caller closes it.
func versions[E comparable](ctx context.Context, s *Store, l *lineage[E], c *walk, e *entity, start, end model.Timestamp, out []E) ([]E, error) {
	var (
		kb        [27]byte
		cur, none E
	)
	if c.SeekFloor(enc.AppendKeyTS(append(kb[:0], e.prefix()...), start)) {
		kts, _, rec, own, err := cell(&c.Cursor, e)
		if err != nil {
			return nil, err
		}
		deleted, delta := true, false // another entity's record: no version there
		if own {
			deleted, delta = enc.PeekState(rec)
		}
		if !deleted {
			back := 0
			for ; delta && kts != 0; back++ {
				if err := strided(ctx, back+1); err != nil {
					return nil, err
				}
				if !c.Prev() {
					return nil, cmp.Or(c.Err(), errCorrupt)
				}
				if kts, _, rec, own, err = cell(&c.Cursor, e); err != nil || !own {
					return nil, errCorrupt
				}
				_, delta = enc.PeekState(rec)
			}
			u, err := c.decode(s, e, rec, kts)
			if err != nil {
				return nil, err
			}
			cur = l.fresh(e.id, u)
			for ; back > 0; back-- {
				if err := strided(ctx, back); err != nil {
					return nil, err
				}
				if !c.Next() {
					return nil, cmp.Or(c.Err(), errCorrupt)
				}
				if kts, _, rec, own, err = cell(&c.Cursor, e); err != nil || !own {
					return nil, cmp.Or(err, errCorrupt)
				}
				if u, err = c.decode(s, e, rec, kts); err != nil {
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
		kts, _, rec, own, err := cell(&c.Cursor, e)
		if err != nil {
			return nil, err
		}
		if !own {
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
			u, err := c.decode(s, e, rec, kts)
			if err != nil {
				return nil, err
			}
			cur = l.fresh(e.id, u)
		case cur != none:
			u, err := c.decode(s, e, rec, kts)
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

func checkInterval(start, end model.Timestamp) error {
	if end < start {
		return fmt.Errorf("lineagestore: %w: [%d, %d)", model.ErrInvalidInterval, start, end)
	}
	return nil
}

// history is the Table 1 call on one entity: its versions between start
// (inclusive) and end (exclusive), or with start == end the single version
// valid at that instant, if any. One descent, one cursor.
func history[E comparable](ctx context.Context, s *Store, l *lineage[E], e *entity, start, end model.Timestamp) ([]E, error) {
	if err := checkInterval(start, end); err != nil {
		return nil, err
	}
	c := walk{Cursor: l.tree(s).Cursor()}
	defer c.Close()
	return versions(ctx, s, l, &c, e, start, end, nil)
}

// GetNodeContext returns the node's history between start (inclusive) and
// end (exclusive), one entry per version (Table 1). With start == end it
// returns the single version valid at that instant, if any. The walk over
// the window's records checks ctx every cancelStride entries.
func (s *Store) GetNodeContext(ctx context.Context, id model.NodeID, start, end model.Timestamp) ([]*model.Node, error) {
	e := nodeEntity(id)
	return history(ctx, s, &nodeLineage, &e, start, end)
}

// GetRelationshipContext returns the relationship's history between start
// and end (Table 1); start == end returns the single version at that instant.
// The source index names the cluster its versions are in, and the walk
// descends into it once — once per source, when the id came back under
// another one. When ctx carries a Profile, the walk adds its costs to it.
func (s *Store) GetRelationshipContext(ctx context.Context, id model.RelID, start, end model.Timestamp) ([]*model.Rel, error) {
	if err := checkInterval(start, end); err != nil {
		return nil, err
	}
	prof, _ := ctx.Value(profileKey{}).(*Profile)
	t0 := prof.start()
	c := walk{Cursor: s.outRels.Cursor()}
	defer c.Close()
	var sb [2]source
	out, err := s.walkSources(ctx, &c, s.srcs.sources(sb[:0], id), start, end, nil, nil)
	var vs []*model.Rel
	if len(out) > 0 {
		vs = out[0]
	}
	prof.add(ProfileOp{Operator: "PointVersions outrels.idx", Store: store, Rows: len(vs), Descents: c.Descents, Gets: c.Gets, Decoded: c.decoded}, t0)
	return vs, err
}

// source names the cluster, (src, rel), that versions of rel live in.
type source struct {
	rel model.RelID
	src model.NodeID
}

// walkSources appends to out one inner slice per relationship of srcs (whose
// sources are adjacent): its versions in [start, end) from each source's
// cluster that keep (nil: all) accepts, in time order. The cursor yields to
// the writer every cancelStride sources.
func (s *Store) walkSources(ctx context.Context, c *walk, srcs []source, start, end model.Timestamp, keep func(*model.Rel) bool, out [][]*model.Rel) ([][]*model.Rel, error) {
	var flat []*model.Rel
	for i, sc := range srcs {
		if err := strided(ctx, i); err != nil {
			return nil, err
		}
		if i%cancelStride == cancelStride-1 {
			c.Yield() // a hub must not hold the cascade out of the tree for its whole length
		}
		e, n := relEntity(sc.src, sc.rel), len(flat)
		var err error
		if flat, err = versions(ctx, s, &relLineage, c, &e, start, end, flat); err != nil {
			return nil, err
		}
		if keep != nil {
			flat = flat[:n+len(slices.DeleteFunc(flat[n:], func(r *model.Rel) bool { return !keep(r) }))]
		}
		if i+1 < len(srcs) && srcs[i+1].rel == sc.rel || len(flat) == 0 {
			continue
		}
		if i > 0 && srcs[i-1].rel == sc.rel { // the id came back under another source
			slices.SortFunc(flat, func(x, y *model.Rel) int { return cmp.Compare(x.Valid.Start, y.Valid.Start) })
		}
		out, flat = append(out, flat[:len(flat):len(flat)]), flat[len(flat):]
	}
	return out, nil
}

// scanIncoming appends to dst, in relationship id order, the sources of node
// a's incoming relationships with an entry at or before through — at an
// instant (liveOnly) those live then, read from each one's last such entry;
// over a window every source any of them names, each once. skipLoops leaves
// out a's self-loops: the outgoing scan lists them.
func scanIncoming(ctx context.Context, prof *Profile, tree *btree.Tree, dst []source, a model.NodeID, through model.Timestamp, liveOnly, skipLoops bool) ([]source, error) {
	var (
		kb    [9]byte
		last  source
		live  bool
		group int // where the last relationship's sources start in dst
	)
	t0 := prof.start()
	c := tree.Cursor()
	defer c.Close()
	c.SeekFloor(enc.AppendKeyPrefix(kb[:0], int64(a))) // the bare prefix sorts just below a's first entry
	for n := 1; c.Next(); n++ {
		if err := strided(ctx, n); err != nil {
			return nil, err
		}
		ka, rel, ets, ok := enc.ParseKeyIncident(c.Key())
		if !ok {
			return nil, errCorrupt
		}
		if ka != a {
			break
		}
		deleted, src, ok := enc.ParseIncomingValue(c.Value())
		switch {
		case !ok:
			return nil, errCorrupt
		case ets > through || skipLoops && src == a:
		case !liveOnly:
			if group < len(dst) && dst[group].rel != rel {
				group = len(dst)
			}
			if !slices.Contains(dst[group:], source{rel, src}) {
				dst = append(dst, source{rel, src})
			}
		default:
			if live && last.rel != rel {
				dst = append(dst, last)
			}
			last, live = source{rel, src}, !deleted
		}
	}
	if live {
		dst = append(dst, last)
	}
	prof.add(ProfileOp{Operator: "IncomingScan in.idx", Store: store, Rows: len(dst), Descents: c.Descents, Gets: c.Gets}, t0)
	return dst, c.Err()
}

// GetRelationshipsContext returns a node's (in/out) relationship history
// between start and end (Table 1): one inner slice per incident relationship,
// holding its versions in the interval, outgoing ones first, each direction
// in relationship id order. With start == end it returns the relationships
// live at that instant, one version each. Every index scan and version walk
// is a cancellation point, and a cursor yields to the writer every
// cancelStride relationships. When ctx carries a Profile, each operator adds
// its costs to it.
func (s *Store) GetRelationshipsContext(ctx context.Context, id model.NodeID, d model.Direction, start, end model.Timestamp) ([][]*model.Rel, error) {
	if err := checkInterval(start, end); err != nil {
		return nil, err
	}
	prof, _ := ctx.Value(profileKey{}).(*Profile)
	var out [][]*model.Rel
	var err error
	if d != model.Incoming {
		if out, err = s.outgoing(ctx, prof, id, start, end); err != nil {
			return nil, err
		}
	}
	if d != model.Outgoing {
		out, err = s.incoming(ctx, prof, id, start, end, d == model.Both, out)
	}
	return out, err
}

// outgoing returns node a's outgoing relationships' versions in [start, end),
// one slice each: one descent to a's cluster, then one pass through it, whose
// version walks mostly seek inside the leaf the cursor holds.
func (s *Store) outgoing(ctx context.Context, prof *Profile, a model.NodeID, start, end model.Timestamp) ([][]*model.Rel, error) {
	var (
		kb   [27]byte
		out  [][]*model.Rel
		flat []*model.Rel
	)
	t0 := prof.start()
	c := walk{Cursor: s.outRels.Cursor()}
	defer c.Close()
	// The bare prefix sorts just below a's first entry; each Next lands on a
	// relationship's first cell.
	c.SeekFloor(enc.AppendKeyPrefix(kb[:0], int64(a)))
	for i := 0; c.Next(); i++ {
		src, rel, first, ok := enc.ParseKeyIncident(c.Key())
		if !ok {
			return nil, errCorrupt
		}
		if src != a {
			break
		}
		if err := strided(ctx, i); err != nil {
			return nil, err
		}
		if i%cancelStride == cancelStride-1 {
			c.Yield() // as in walkSources
		}
		if first <= start || first < end { // else its history starts after the window
			e, n := relEntity(a, rel), len(flat)
			var err error
			if flat, err = versions(ctx, s, &relLineage, &c, &e, start, end, flat); err != nil {
				return nil, err
			}
			if len(flat) > n {
				out = append(out, flat[n:len(flat):len(flat)])
			}
		}
		c.SeekFloor(enc.AppendKeyIncident(kb[:0], a, rel, -1)) // rel's last cell
	}
	prof.add(ProfileOp{Operator: "OutgoingScan outrels.idx", Store: store, Rows: len(out), Descents: c.Descents, Gets: c.Gets, Decoded: c.decoded}, t0)
	return out, c.Err()
}

// incoming appends node a's incoming relationships' versions in [start, end)
// to out: one scan of a's in.idx range names each one's source, then each
// takes a descent into that source's cluster, keeping the versions that end
// at a.
func (s *Store) incoming(ctx context.Context, prof *Profile, a model.NodeID, start, end model.Timestamp, skipLoops bool, out [][]*model.Rel) ([][]*model.Rel, error) {
	var sb [16]source
	srcs, err := scanIncoming(ctx, prof, s.in, sb[:0], a, max(start, end-1), start == end, skipLoops)
	if err != nil || len(srcs) == 0 {
		return out, err
	}
	t0, rows := prof.start(), len(out)
	c := walk{Cursor: s.outRels.Cursor()}
	defer c.Close()
	if out, err = s.walkSources(ctx, &c, srcs, start, end, func(r *model.Rel) bool { return r.Tgt == a }, out); err != nil {
		return nil, err
	}
	prof.add(ProfileOp{Operator: "IncomingVersions outrels.idx", Store: store, Rows: len(out) - rows, Descents: c.Descents, Gets: c.Gets, Decoded: c.decoded}, t0)
	return out, nil
}

// NodesAtContext appends to dst the state at ts of each node of ids — nil
// for one that does not exist then — read through one cursor on the node
// tree, which yields to the writer every cancelStride nodes.
func (s *Store) NodesAtContext(ctx context.Context, ids []model.NodeID, ts model.Timestamp, dst []*model.Node) ([]*model.Node, error) {
	c := walk{Cursor: s.nodes.Cursor()}
	defer c.Close()
	for i, id := range ids {
		if err := strided(ctx, i); err != nil {
			return nil, err
		}
		if i%cancelStride == cancelStride-1 {
			c.Yield() // as in walkSources
		}
		e, n := nodeEntity(id), len(dst)
		var err error
		if dst, err = versions(ctx, s, &nodeLineage, &c, &e, ts, ts, dst); err != nil {
			return nil, err
		}
		if len(dst) == n {
			dst = append(dst, nil)
		}
	}
	return dst, nil
}
