package model

import (
	"errors"
	"fmt"
	"slices"
)

// OpKind is the kind of a graph update operation (Sec 3: insert, delete, or
// update a graph entity).
type OpKind uint8

const (
	// OpAddNode inserts a new node with labels and properties.
	OpAddNode OpKind = iota
	// OpDeleteNode removes a node (its relationships must already be gone).
	OpDeleteNode
	// OpUpdateNode modifies labels and/or properties of an existing node.
	OpUpdateNode
	// OpAddRel inserts a new relationship between existing nodes.
	OpAddRel
	// OpDeleteRel removes a relationship.
	OpDeleteRel
	// OpUpdateRel modifies properties of an existing relationship.
	OpUpdateRel
)

// String returns the operation name.
func (k OpKind) String() string {
	switch k {
	case OpAddNode:
		return "AddNode"
	case OpDeleteNode:
		return "DeleteNode"
	case OpUpdateNode:
		return "UpdateNode"
	case OpAddRel:
		return "AddRel"
	case OpDeleteRel:
		return "DeleteRel"
	case OpUpdateRel:
		return "UpdateRel"
	}
	return "?"
}

// IsNodeOp reports whether the operation targets a node.
func (k OpKind) IsNodeOp() bool { return k <= OpUpdateNode }

// Update is one element u = (τ, id, op) of the graph update stream S. Adds
// carry the full entity state; updates carry deltas (added/removed labels,
// set/removed properties); deletes carry only the identifier (deleted
// entities require space only for their ID and deletion timestamp, Sec 4.2).
type Update struct {
	TS   Timestamp
	Kind OpKind

	// Entity identity. NodeID is set for node ops; RelID, Src, Tgt and
	// RelLabel for relationship ops (Src/Tgt/RelLabel only on OpAddRel).
	NodeID   NodeID
	RelID    RelID
	Src, Tgt NodeID
	RelLabel string

	// Delta payload. For adds these hold the initial labels/properties.
	AddLabels []string
	DelLabels []string
	SetProps  Properties
	DelProps  []string
}

// String renders a compact description of the update.
func (u Update) String() string {
	if u.Kind.IsNodeOp() {
		return fmt.Sprintf("%s(n%d)@%d", u.Kind, u.NodeID, u.TS)
	}
	return fmt.Sprintf("%s(r%d %d->%d)@%d", u.Kind, u.RelID, u.Src, u.Tgt, u.TS)
}

// EntityKey returns a key identifying the updated entity, unique across
// nodes and relationships (nodes get even keys, relationships odd).
func (u Update) EntityKey() int64 {
	if u.Kind.IsNodeOp() {
		return int64(u.NodeID) << 1
	}
	return int64(u.RelID)<<1 | 1
}

// AddNode builds an insertion update for a node.
func AddNode(ts Timestamp, id NodeID, labels []string, props Properties) Update {
	return Update{TS: ts, Kind: OpAddNode, NodeID: id, AddLabels: labels, SetProps: props}
}

// DeleteNode builds a node deletion update.
func DeleteNode(ts Timestamp, id NodeID) Update {
	return Update{TS: ts, Kind: OpDeleteNode, NodeID: id}
}

// UpdateNode builds a node modification update with label and property
// deltas.
func UpdateNode(ts Timestamp, id NodeID, addLabels, delLabels []string, set Properties, del []string) Update {
	return Update{TS: ts, Kind: OpUpdateNode, NodeID: id,
		AddLabels: addLabels, DelLabels: delLabels, SetProps: set, DelProps: del}
}

// AddRel builds an insertion update for a relationship.
func AddRel(ts Timestamp, id RelID, src, tgt NodeID, label string, props Properties) Update {
	return Update{TS: ts, Kind: OpAddRel, RelID: id, Src: src, Tgt: tgt, RelLabel: label, SetProps: props}
}

// DeleteRel builds a relationship deletion update.
func DeleteRel(ts Timestamp, id RelID, src, tgt NodeID) Update {
	return Update{TS: ts, Kind: OpDeleteRel, RelID: id, Src: src, Tgt: tgt}
}

// UpdateRel builds a relationship modification update with property deltas.
func UpdateRel(ts Timestamp, id RelID, src, tgt NodeID, set Properties, del []string) Update {
	return Update{TS: ts, Kind: OpUpdateRel, RelID: id, Src: src, Tgt: tgt, SetProps: set, DelProps: del}
}

// ApplyToNode folds the update's delta into the node state in place. The
// node must match the update's NodeID.
func (u Update) ApplyToNode(n *Node) {
	for _, l := range u.DelLabels {
		for i, x := range n.Labels {
			if x == l {
				n.Labels = append(n.Labels[:i], n.Labels[i+1:]...)
				break
			}
		}
	}
	for _, l := range u.AddLabels {
		if !n.HasLabel(l) {
			n.Labels = append(n.Labels, l)
		}
	}
	u.applyProps(&n.Props)
}

// ApplyToRel folds the update's delta into the relationship state in place.
func (u Update) ApplyToRel(r *Rel) { u.applyProps(&r.Props) }

// applyProps sets and then deletes the update's properties in *p, making the
// map when a set needs one.
func (u Update) applyProps(p *Properties) {
	if len(u.SetProps) > 0 && *p == nil {
		*p = make(Properties, len(u.SetProps))
	}
	for k, v := range u.SetProps {
		(*p)[k] = v
	}
	for _, k := range u.DelProps {
		delete(*p, k)
	}
}

// MergeUpdates folds b, a later change of the same entity, into a, so that
// applying a equals applying a and then b. An insertion stays one, with the
// labels and properties the entity has after b, and keeps its timestamp; a
// delta takes b's, and
//
//	labels: del = aDel ∪ bDel;  add = (aAdd − bDel) ∪ bAdd
//	props:  set = (aSet overlaid by bSet) − bDel;  del = (aDel − keys(bSet)) ∪ bDel
//
// (Apply's order within one update is del-labels-then-add-labels and
// set-props-then-del-props, so b's label deletes strike a's labels before b's
// own land, and b's property sets land before b's deletes strike them.) a's
// slices and map are reused: they must alias nothing the caller still reads.
func MergeUpdates(a *Update, b Update) {
	a.AddLabels = append(minusStrs(a.AddLabels, b.DelLabels), b.AddLabels...)
	a.SetProps = mergeProps(a.SetProps, b.SetProps, b.DelProps)
	if a.Kind == OpAddNode || a.Kind == OpAddRel {
		return
	}
	a.DelLabels = append(a.DelLabels, b.DelLabels...)
	a.DelProps = append(slices.DeleteFunc(a.DelProps, func(k string) bool {
		_, set := b.SetProps[k]
		return set
	}), b.DelProps...)
	a.TS = b.TS
}

// minusStrs returns a without any element of del (order preserved).
func minusStrs(a, del []string) []string {
	return slices.DeleteFunc(a, func(s string) bool { return slices.Contains(del, s) })
}

// mergeProps applies (set bSet, then del bDel — Apply's order, so a key an
// update both sets and deletes ends deleted) on top of base, returning the
// surviving set map.
func mergeProps(base, bSet Properties, bDel []string) Properties {
	if base == nil && bSet == nil {
		return nil
	}
	out := base
	if out == nil {
		out = Properties{}
	}
	for k, v := range bSet {
		out[k] = v
	}
	for _, k := range bDel {
		delete(out, k)
	}
	return out
}

// Validation errors returned by stream checkers and stores.
var (
	ErrNotFound        = errors.New("model: entity not found")
	ErrExists          = errors.New("model: entity already exists")
	ErrDangling        = errors.New("model: relationship endpoint missing")
	ErrHasRels         = errors.New("model: node still has relationships")
	ErrNonMonotonic    = errors.New("model: update timestamps not monotonic")
	ErrInvalidInterval = errors.New("model: interval start must precede end")
)
