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
// how its records become entity versions — so that one version walker and
// one delta writer serve nodes and relationships alike.
type lineage[T any] struct {
	name   string
	tree   func(*Store) *btree.Tree
	ident  func(v *T, id int64, src model.NodeID) // sets a zero version's identity
	decode func(*enc.Codec, []byte, *T) error     // a full record sets a version's state; a delta folds into its own maps
	own    func(*T)                               // gives a copied version a label slice and property map of its own
	fold   func(model.Update, *T)                 // applies a delta in place
	valid  func(*T) *model.Interval
	full   func(model.Timestamp, *T) model.Update // the materialized record of a version
}

var nodeLineage = lineage[model.Node]{
	name:   "node",
	tree:   func(s *Store) *btree.Tree { return s.nodes },
	ident:  func(n *model.Node, id int64, _ model.NodeID) { n.ID = model.NodeID(id) },
	decode: (*enc.Codec).DecodeNodeVersion,
	own:    func(n *model.Node) { n.Labels, n.Props = slices.Clone(n.Labels), n.Props.Clone() },
	fold:   model.Update.ApplyToNode,
	valid:  func(n *model.Node) *model.Interval { return &n.Valid },
	full: func(ts model.Timestamp, n *model.Node) model.Update {
		return model.AddNode(ts, n.ID, n.Labels, n.Props)
	},
}

var relLineage = lineage[model.Rel]{
	name:   "rel",
	tree:   func(s *Store) *btree.Tree { return s.outRels },
	ident:  func(r *model.Rel, id int64, src model.NodeID) { r.ID, r.Src = model.RelID(id), src },
	decode: (*enc.Codec).DecodeRelVersion,
	own:    func(r *model.Rel) { r.Props = r.Props.Clone() },
	fold:   model.Update.ApplyToRel,
	valid:  func(r *model.Rel) *model.Interval { return &r.Valid },
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
// which leaves e's ids to the key. own is false, and the rest zero, for
// another entity's cell. The record aliases the page.
func cell(c *btree.Cursor, e *entity) (ts model.Timestamp, pos int, rec []byte, own bool, err error) {
	k, v := c.Cell()
	p := e.prefix()
	if !bytes.HasPrefix(k, p) {
		return 0, 0, nil, false, nil
	}
	ts, ok := enc.ParseKeyTS(k[len(p):])
	if !ok || len(v) < 2 {
		return 0, 0, nil, false, errCorrupt
	}
	return ts, int(v[0]), v[1:], true, nil
}

// walk is one read's cursor on a version tree, with what its versions are
// built from and the number of version records it decoded, which a profile
// reports.
type walk[T any] struct {
	btree.Cursor
	l       *lineage[T]
	codec   *enc.Codec
	decoded int
	slab    []T      // the versions handed out are cut from it: an allocation per doubling, not one per version
	chain   [][]byte // the records of the chain the state at the walk's start hangs from, aliasing their pages
}

func newWalk[T any](s *Store, l *lineage[T]) walk[T] {
	return walk[T]{Cursor: l.tree(s).Cursor(), l: l, codec: s.codec}
}

// version cuts from the slab a version valid from ts on — a copy of from
// with maps of its own, or, with from nil, one of e's identity alone — and
// decodes rec into it.
func (w *walk[T]) version(from *T, e *entity, ts model.Timestamp, rec []byte) (*T, error) {
	if len(w.slab) == cap(w.slab) {
		w.slab = make([]T, 0, max(4, 2*cap(w.slab)))
	}
	w.slab = w.slab[:len(w.slab)+1]
	v := &w.slab[len(w.slab)-1] // zero: a slot is cut once
	if from != nil {
		*v = *from
		w.l.own(v)
	} else {
		w.l.ident(v, e.id, e.src)
	}
	*w.l.valid(v) = model.Interval{Start: ts, End: model.TSInfinity}
	return v, w.decode(rec, v)
}

func (w *walk[T]) decode(rec []byte, v *T) error {
	w.decoded++
	return w.l.decode(w.codec, rec, v)
}

// forward is the one version walker. From the cell under w (on: there is
// one) it reads e's cells in key order and appends to out e's versions that
// overlap [start, end) — with start == end, the one valid at that instant.
// Up to start it only parses keys and peeks states, noting the chain the
// state at start hangs from, a full record and the deltas since; past start
// it decodes that chain, once, into a version cut from the slab. A record
// inside the window ends the version before it and opens the next: a full
// one decodes into a new version, a delta into a copy of the one it changes.
// A version ends at the entity's next record, whatever its kind ("the end
// time can be inferred by updates that follow", Sec 4.2). The walk stops on
// the first cell not e's or at or past end (past start, for an instant) and
// reports whether w is on a cell. The records it notes alias their pages,
// which no writer changes while w holds the tree.
func (w *walk[T]) forward(ctx context.Context, e *entity, start, end model.Timestamp, on bool, out []*T) ([]*T, bool, error) {
	var (
		cur *T
		at  model.Timestamp // the timestamp of the chain's newest record
		err error
	)
	w.chain = w.chain[:0]
	for n := 1; ; n, on = n+1, w.Next() {
		var kts model.Timestamp
		var rec []byte
		own, deleted, delta := false, false, false
		if on {
			if err = strided(ctx, n); err == nil {
				kts, _, rec, own, err = cell(&w.Cursor, e)
			}
			if err != nil {
				return nil, false, err
			}
			if own {
				deleted, delta = enc.PeekState(rec)
			}
		}
		if own && kts <= start {
			switch {
			case deleted:
				w.chain = w.chain[:0]
			case !delta:
				w.chain = append(w.chain[:0], rec)
			case len(w.chain) == 0: // a delta chain that does not lead back to a full record
				return nil, false, errCorrupt
			default:
				w.chain = append(w.chain, rec)
			}
			at = kts
			continue
		}
		if len(w.chain) > 0 { // the walk just passed start
			if cur, err = w.version(nil, e, at, w.chain[0]); err != nil {
				return nil, false, err
			}
			for _, rec := range w.chain[1:] {
				if err = w.decode(rec, cur); err != nil {
					return nil, false, err
				}
			}
			w.chain = w.chain[:0]
		}
		if cur != nil {
			if own {
				w.l.valid(cur).End = kts
			}
			out = append(out, cur)
		}
		if !own || kts >= end {
			return out, on, w.Err()
		}
		switch {
		case deleted:
			cur = nil
		case !delta: // insertion, re-insertion, or materialized state
			cur, err = w.version(nil, e, kts, rec)
		case cur == nil:
			err = errCorrupt
		default: // a delta changes a copy of the version before it
			cur, err = w.version(cur, e, kts, rec)
		}
		if err != nil {
			return nil, false, err
		}
	}
}

func checkInterval(start, end model.Timestamp) error {
	if end < start {
		return fmt.Errorf("lineagestore: %w: [%d, %d)", model.ErrInvalidInterval, start, end)
	}
	return nil
}

// versions appends to out the versions of entity e that overlap [start, end)
// — with start == end, the one valid at that instant — walking forward from
// the cell one descent to e's newest record at or before start finds, back
// along its delta chain to the full record it hangs from (or, with no record
// of e there, from the cell after). w may sit anywhere before.
func (w *walk[T]) versions(ctx context.Context, e *entity, start, end model.Timestamp, out []*T) ([]*T, error) {
	var (
		kb  [27]byte
		rec []byte
		own bool
		err error
	)
	on := w.SeekFloor(enc.AppendKeyTS(append(kb[:0], e.prefix()...), start))
	if on {
		_, _, rec, own, err = cell(&w.Cursor, e)
	}
	for back := 1; own && err == nil; back++ {
		if _, delta := enc.PeekState(rec); !delta {
			break
		}
		if err = strided(ctx, back); err != nil {
			break
		}
		if !w.Prev() {
			err = cmp.Or(w.Err(), errCorrupt)
		} else if _, _, rec, own, err = cell(&w.Cursor, e); err == nil && !own {
			err = errCorrupt // a delta chain that does not lead back to a full record
		}
	}
	if err != nil {
		return nil, err
	}
	if !own {
		on = w.Next()
	}
	out, _, err = w.forward(ctx, e, start, end, on, out)
	return out, err
}

// history is the Table 1 call on one entity: its versions between start
// (inclusive) and end (exclusive), or with start == end the single version
// valid at that instant, if any. One descent, one cursor.
func history[T any](ctx context.Context, s *Store, l *lineage[T], e *entity, start, end model.Timestamp) ([]*T, error) {
	if err := checkInterval(start, end); err != nil {
		return nil, err
	}
	w := newWalk(s, l)
	defer w.Close()
	return w.versions(ctx, e, start, end, nil)
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
	w := newWalk(s, &relLineage)
	defer w.Close()
	var sb [2]source
	out, err := walkSources(ctx, &w, s.srcs.sources(sb[:0], id), start, end, nil, nil)
	var vs []*model.Rel
	if len(out) > 0 {
		vs = out[0]
	}
	prof.add(ProfileOp{Operator: "PointVersions outrels.idx", Store: store, Rows: len(vs), Descents: w.Descents, Gets: w.Gets, Decoded: w.decoded}, t0)
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
func walkSources(ctx context.Context, w *walk[model.Rel], srcs []source, start, end model.Timestamp, keep func(*model.Rel) bool, out [][]*model.Rel) ([][]*model.Rel, error) {
	var flat []*model.Rel
	for i, sc := range srcs {
		if err := strided(ctx, i); err != nil {
			return nil, err
		}
		if i%cancelStride == cancelStride-1 {
			w.Yield() // a hub must not hold the cascade out of the tree for its whole length
		}
		e, n := relEntity(sc.src, sc.rel), len(flat)
		var err error
		if flat, err = w.versions(ctx, &e, start, end, flat); err != nil {
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
// one slice each: one descent to a's cluster, then one forward pass through
// it, each relationship's cells read by the version walker in place and its
// cells past the window only stepped over.
func (s *Store) outgoing(ctx context.Context, prof *Profile, a model.NodeID, start, end model.Timestamp) ([][]*model.Rel, error) {
	var (
		kb   [9]byte
		out  [][]*model.Rel
		flat []*model.Rel
	)
	t0 := prof.start()
	w := newWalk(s, &relLineage)
	defer w.Close()
	w.SeekFloor(enc.AppendKeyPrefix(kb[:0], int64(a))) // the bare prefix sorts just below a's first entry
	on := w.Next()
	for i := 0; on; i++ {
		src, rel, _, ok := enc.ParseKeyIncident(w.Key())
		if !ok {
			return nil, errCorrupt
		}
		if src != a {
			break
		}
		if err := strided(ctx, i); err != nil {
			return nil, err
		}
		e, n := relEntity(a, rel), len(flat)
		if i%cancelStride == cancelStride-1 {
			w.Yield()               // as in walkSources
			w.SeekFloor(e.prefix()) // the bare (a, rel) sorts just below rel's first cell
			on = w.Next()
		}
		var err error
		if flat, on, err = w.forward(ctx, &e, start, end, on, flat); err != nil {
			return nil, err
		}
		if len(flat) > n {
			out = append(out, flat[n:len(flat):len(flat)])
		}
		for k := 1; on && bytes.HasPrefix(w.Key(), e.prefix()); k++ { // rel's cells past the window
			if err := strided(ctx, k); err != nil {
				return nil, err
			}
			on = w.Next()
		}
	}
	prof.add(ProfileOp{Operator: "OutgoingScan outrels.idx", Store: store, Rows: len(out), Descents: w.Descents, Gets: w.Gets, Decoded: w.decoded}, t0)
	return out, w.Err()
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
	w := newWalk(s, &relLineage)
	defer w.Close()
	if out, err = walkSources(ctx, &w, srcs, start, end, func(r *model.Rel) bool { return r.Tgt == a }, out); err != nil {
		return nil, err
	}
	prof.add(ProfileOp{Operator: "IncomingVersions outrels.idx", Store: store, Rows: len(out) - rows, Descents: w.Descents, Gets: w.Gets, Decoded: w.decoded}, t0)
	return out, nil
}

// NodesAtContext appends to dst the state at ts of each node of ids — nil
// for one that does not exist then — read through one cursor on the node
// tree, which yields to the writer every cancelStride nodes.
func (s *Store) NodesAtContext(ctx context.Context, ids []model.NodeID, ts model.Timestamp, dst []*model.Node) ([]*model.Node, error) {
	w := newWalk(s, &nodeLineage)
	defer w.Close()
	for i, id := range ids {
		if err := strided(ctx, i); err != nil {
			return nil, err
		}
		if i%cancelStride == cancelStride-1 {
			w.Yield() // as in walkSources
		}
		e, n := nodeEntity(id), len(dst)
		var err error
		if dst, err = w.versions(ctx, &e, ts, ts, dst); err != nil {
			return nil, err
		}
		if len(dst) == n {
			dst = append(dst, nil)
		}
	}
	return dst, nil
}
