package model

import (
	"math"
)

// NodeID uniquely identifies a node.
type NodeID int64

// RelID uniquely identifies a relationship.
type RelID int64

// Timestamp is a system (transaction) or application (event) time point.
// The time domain T is an ordered set of discrete positive integers (Sec 3).
type Timestamp int64

// TSInfinity is the open end time of a live entity: an insertion sets
// τe(g) = ∞ until a later deletion closes the interval.
const TSInfinity Timestamp = math.MaxInt64

// Interval is a half-open validity interval [Start, End).
type Interval struct {
	Start Timestamp // inclusive
	End   Timestamp // exclusive
}

// Contains reports whether t falls inside [Start, End).
func (iv Interval) Contains(t Timestamp) bool { return t >= iv.Start && t < iv.End }

// ContainedIn reports whether the interval lies inside the closed range
// [a, b]: Start >= a and End <= b+1, computed without wrapping when b is
// MaxInt64.
func (iv Interval) ContainedIn(a, b Timestamp) bool {
	return iv.Start >= a && (iv.End <= b || iv.End-1 == b)
}

// Direction selects which incident relationships of a node to traverse.
type Direction uint8

const (
	// Outgoing selects relationships whose source is the node.
	Outgoing Direction = iota
	// Incoming selects relationships whose target is the node.
	Incoming
	// Both selects relationships in either direction.
	Both
)

// String returns the direction name.
func (d Direction) String() string {
	switch d {
	case Outgoing:
		return "OUTGOING"
	case Incoming:
		return "INCOMING"
	case Both:
		return "BOTH"
	}
	return "?"
}

// Application-time property keys used by the bitemporal model (Sec 3). The
// user manages correctness of these properties; Aion only filters by them.
const (
	// AppStartKey holds the application (event) start time.
	AppStartKey = "__app_start"
	// AppEndKey holds the application (event) end time.
	AppEndKey = "__app_end"
)

// Node is a (temporal) LPG node: v = (τs, τe, nid, l, p). For a non-temporal
// snapshot view Valid is the full interval [0, ∞).
type Node struct {
	ID     NodeID
	Labels []string
	Props  Properties
	Valid  Interval
}

// HasLabel reports whether the node carries the given label.
func (n *Node) HasLabel(l string) bool {
	for _, x := range n.Labels {
		if x == l {
			return true
		}
	}
	return false
}

// AppInterval extracts the application-time interval from the node's
// bitemporal properties, defaulting to [0, ∞) when unset (the system falls
// back to system time per Sec 4.5).
func (n *Node) AppInterval() Interval { return appInterval(n.Props) }

// Rel is a (temporal) LPG relationship: e = (τs, τe, rid, src, tgt, l, p).
// Relationships are directed from Src to Tgt and carry a single (or empty)
// label.
type Rel struct {
	ID    RelID
	Src   NodeID
	Tgt   NodeID
	Label string
	Props Properties
	Valid Interval
}

// AppInterval extracts the application-time interval from the relationship's
// bitemporal properties, defaulting to [0, ∞) when unset.
func (r *Rel) AppInterval() Interval { return appInterval(r.Props) }

func appInterval(p Properties) Interval {
	iv := Interval{Start: 0, End: TSInfinity}
	if v, ok := p[AppStartKey]; ok && v.Kind() == KindInt {
		iv.Start = Timestamp(v.Int())
	}
	if v, ok := p[AppEndKey]; ok && v.Kind() == KindInt {
		iv.End = Timestamp(v.Int())
	}
	return iv
}

// Graph is the one graph read interface, the graph at one time: a snapshot
// (*memgraph.Graph) or aion's LineageStore View at ts. Cypher's matcher,
// Alg 1 and the host's commit check read it. Counts, dense ids and adjacency
// lists stay on the snapshot: a View could answer them only by a scan. Node,
// Rel and Neighbours hand out entities the caller owns; ForEachNode lends.
type Graph interface {
	Node(id NodeID) *Node // nil if absent
	Rel(id RelID) *Rel    // nil if absent
	// HasNode and Ends answer what Node and Rel do by id, building no entity:
	// whether node id is live, and relationship id's endpoints, ok if live.
	HasNode(id NodeID) bool
	Ends(id RelID) (src, tgt NodeID, ok bool)
	// Neighbours calls fn with each relationship incident to id in d and its
	// other end (a self-loop twice in Both) until fn returns false.
	Neighbours(id NodeID, d Direction, fn func(r *Rel, nb NodeID) bool)
	// ForEachNode calls fn with each live node until fn returns false. The
	// node is lent: it and its Props are valid until fn returns, and may be
	// refilled for the next; a caller that keeps one copies it. Writing to it
	// changes nothing the graph holds.
	ForEachNode(fn func(n *Node) bool)
}
