package memgraph

import (
	"slices"
	"strings"

	"aion/internal/model"
)

// nodeRec and relRec are an entity as a graph holds it, at its id's index:
// immutable once installed, so clones, graphs loaded beside this one and
// readers may all hold one. An update installs a new record; start is
// Valid.Start, and a held entity is live, so Valid.End is open. Labels or type
// and properties are held apart, immutable too, so that the adds without
// properties a graph makes share theirs (Graph.blankNode, blankRel).
type nodeRec struct {
	*nodeAttrs
	start model.Timestamp
}

type relRec struct {
	src, tgt model.NodeID
	start    model.Timestamp
	*relAttrs
}

type nodeAttrs struct {
	labels []string
	props  props
}

type relAttrs struct {
	label string
	props props
}

// props is a record's properties sorted by key, 32 B each, where a Go map
// holding one or two costs about 320 B.
type props []prop

type prop struct {
	key string
	val model.Value
}

// node makes n, a new node when nil, the entity r holds at id, its properties
// in m (props.into) and its Labels capped so that an append copies: the
// caller's own when n and m are nil. A nil record makes nil.
func (r *nodeRec) node(id model.NodeID, n *model.Node, m model.Properties) *model.Node {
	if r == nil {
		return nil
	}
	if n == nil {
		n = new(model.Node)
	}
	*n = model.Node{ID: id, Labels: r.labels[:len(r.labels):len(r.labels)], Props: r.props.into(m),
		Valid: model.Interval{Start: r.start, End: model.TSInfinity}}
	return n
}

// rel builds the relationship, the caller's own. A nil record builds nil.
func (r *relRec) rel(id model.RelID) *model.Rel {
	if r == nil {
		return nil
	}
	return &model.Rel{ID: id, Src: r.src, Tgt: r.tgt, Label: r.label, Props: r.props.into(nil),
		Valid: model.Interval{Start: r.start, End: model.TSInfinity}}
}

func (ps props) get(k string) (model.Value, bool) {
	i := slices.IndexFunc(ps, func(p prop) bool { return p.key == k })
	if i < 0 {
		return model.Value{}, false
	}
	return ps[i].val, true
}

// into returns ps in m, cleared first, or in a new map when m is nil; nil
// when ps is empty.
func (ps props) into(m model.Properties) model.Properties {
	if len(ps) == 0 {
		return nil
	}
	if m == nil {
		m = make(model.Properties, len(ps))
	}
	clear(m)
	for _, p := range ps {
		m[p.key] = p.val
	}
	return m
}

// is reports whether ps holds exactly m's entries.
func (ps props) is(m model.Properties) bool {
	return len(ps) == len(m) && !slices.ContainsFunc(ps, func(p prop) bool {
		v, ok := m[p.key]
		return !ok || !v.Equal(p.val)
	})
}

func (ps props) equal(o props) bool {
	return slices.EqualFunc(ps, o, func(a, b prop) bool { return a.key == b.key && a.val.Equal(b.val) })
}

// with returns ps with set and then del applied, ApplyToNode's order: ps
// itself when both are empty, else a new slice, nil when it would be empty.
func (ps props) with(set model.Properties, del []string) props {
	if len(set)+len(del) == 0 {
		return ps
	}
	n := len(ps)
	for k := range set {
		if _, ok := ps.get(k); !ok {
			n++
		}
	}
	out := make(props, 0, n)
	for _, p := range ps {
		if _, ok := set[p.key]; !ok && !slices.Contains(del, p.key) {
			out = append(out, p)
		}
	}
	for k, v := range set {
		if !slices.Contains(del, k) {
			out = append(out, prop{k, v})
		}
	}
	if len(out) == 0 {
		return nil
	}
	slices.SortFunc(out, func(a, b prop) int { return strings.Compare(a.key, b.key) })
	return out
}

// bytes is the properties' share of ApproxBytes.
func (ps props) bytes() (b int64) {
	for _, p := range ps {
		b += int64(len(p.key) + p.val.ApproxBytes())
	}
	return b
}

// nextLabels returns ls with the label edits add and del applied in
// ApplyToNode's order: ls itself when there are none, else a new slice.
func nextLabels(ls, add, del []string) []string {
	if len(add)+len(del) == 0 {
		return ls
	}
	n := model.Node{Labels: slices.Clone(ls)}
	model.Update{AddLabels: add, DelLabels: del}.ApplyToNode(&n)
	return n.Labels
}
