package refmodel

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"

	"aion/internal/model"
)

// History is a seeded update stream built to reach every corner of a store's
// read path: nodes and relationships deleted and created again under the same
// id (half of the time with the content they were first created with),
// several relationships between one pair of endpoints (some born in the same
// commit), self-loops, label edits, a few hot entities updated often enough
// to cross any delta-chain threshold many times over, and property values long
// enough that a B+Tree leaf holds a dozen records — so chains straddle leaf
// splits. A commit changes an entity at most once, as the Model's contract
// requires.
type History struct {
	Rand    *rand.Rand
	TS      model.Timestamp // the newest commit's
	Updates []model.Update
	// Nodes and Rels bound the ids used: every entity ever created has a
	// smaller one.
	Nodes model.NodeID
	Rels  model.RelID

	nodes    map[model.NodeID]bool // live
	deadNode []model.NodeID
	rels     map[model.RelID][2]model.NodeID // live, with endpoints
	deadRel  map[model.RelID][2]model.NodeID
	degree   map[model.NodeID]int
	born     map[int64]model.Update // each entity's first creation, by EntityKey
	touched  map[int64]bool         // entity keys changed in the current commit
	kinds    int                    // otherKind's turn
}

// NewHistory returns an empty history drawn from seed.
func NewHistory(seed int64) *History {
	return &History{Rand: rand.New(rand.NewSource(seed)), nodes: map[model.NodeID]bool{},
		rels: map[model.RelID][2]model.NodeID{}, deadRel: map[model.RelID][2]model.NodeID{},
		degree: map[model.NodeID]int{}, born: map[int64]model.Update{}}
}

func (h *History) props() model.Properties {
	p := model.Properties{fmt.Sprintf("p%d", h.Rand.Intn(4)): model.StringValue(strings.Repeat("x", 40+h.Rand.Intn(200)))}
	if h.Rand.Intn(3) == 0 {
		p["n"] = model.IntValue(h.Rand.Int63n(1000))
	}
	if h.Rand.Intn(3) == 0 {
		p["k"] = h.otherKind()
	}
	return p
}

// otherKind returns a value of the next kind in turn that props does not
// otherwise draw, edge cases included: −0, the empty string, empty arrays. No
// array holds a NaN, which would make it unequal to itself.
func (h *History) otherKind() model.Value {
	h.kinds++
	n := h.Rand.Intn(4) // array length; 0 is the empty array
	switch h.kinds % 7 {
	case 0:
		return model.FloatValue(h.Rand.NormFloat64())
	case 1:
		return model.FloatValue(math.Copysign(0, -1))
	case 2:
		return model.BoolValue(h.Rand.Intn(2) == 0)
	case 3:
		return model.StringValue("")
	case 4:
		a := make([]int64, n)
		for i := range a {
			a[i] = h.Rand.Int63() - h.Rand.Int63()
		}
		return model.IntArrayValue(a)
	case 5:
		a := make([]float64, n)
		for i := range a {
			a[i] = h.Rand.NormFloat64()
		}
		return model.FloatArrayValue(a)
	}
	a := make([]string, n)
	for i := range a {
		a[i] = strings.Repeat("y", h.Rand.Intn(3))
	}
	return model.StringArrayValue(a)
}

// pick draws a key of m; map order must not reach the history.
func pick[K ~int64, V any](rng *rand.Rand, m map[K]V) (k K, ok bool) {
	if len(m) == 0 {
		return k, false
	}
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys[rng.Intn(len(keys))], true
}

// emit records u unless its entity already changed in this commit. A creation
// under an id used before carries, half of the time, the entity's first
// content instead of u's.
func (h *History) emit(u model.Update) bool {
	key := u.EntityKey()
	if h.touched[key] {
		return false
	}
	h.touched[key] = true
	own := func(u model.Update) model.Update { // a copy no store can alias
		u.AddLabels, u.SetProps = slices.Clone(u.AddLabels), u.SetProps.Clone()
		return u
	}
	if first, ok := h.born[key]; !ok && (u.Kind == model.OpAddNode || u.Kind == model.OpAddRel) {
		h.born[key] = own(u)
	} else if ok && u.Kind == first.Kind && h.Rand.Intn(2) == 0 {
		u = own(first)
	}
	u.TS = h.TS
	h.Updates = append(h.Updates, u)
	return true
}

// Commit appends one commit of up to n updates, at the timestamp after the
// last, and returns them.
func (h *History) Commit(n int) []model.Update {
	h.TS++
	h.touched = map[int64]bool{}
	from := len(h.Updates)
	for i := 0; i < n; i++ {
		switch r := h.Rand.Intn(100); {
		case r < 12 || len(h.nodes) < 4: // a new node, or a deleted one back
			id := h.Nodes
			if len(h.deadNode) > 0 && h.Rand.Intn(3) == 0 {
				id = h.deadNode[len(h.deadNode)-1]
			}
			if h.emit(model.AddNode(0, id, []string{"L", fmt.Sprintf("L%d", id%3)}, h.props())) {
				if h.nodes[id] = true; id == h.Nodes {
					h.Nodes++
				} else {
					h.deadNode = h.deadNode[:len(h.deadNode)-1]
				}
			}
		case r < 40: // update a node: the first few are hot
			id, _ := pick(h.Rand, h.nodes)
			if hot := model.NodeID(h.Rand.Intn(3)); h.nodes[hot] && h.Rand.Intn(2) == 0 {
				id = hot
			}
			var add, del []string
			if h.Rand.Intn(4) == 0 {
				add, del = []string{fmt.Sprintf("X%d", h.Rand.Intn(3))}, []string{fmt.Sprintf("X%d", h.Rand.Intn(3))}
			}
			var unset []string
			if h.Rand.Intn(4) == 0 {
				unset = []string{fmt.Sprintf("p%d", h.Rand.Intn(4))}
			}
			h.emit(model.UpdateNode(0, id, add, del, h.props(), unset))
		case r < 44: // delete a node no relationship holds
			if id, ok := pick(h.Rand, h.nodes); ok && h.degree[id] == 0 && id > 2 && h.emit(model.DeleteNode(0, id)) {
				delete(h.nodes, id)
				h.deadNode = append(h.deadNode, id)
			}
		case r < 66: // a relationship: new, parallel to an existing one, a self-loop, or a deleted one back
			src, _ := pick(h.Rand, h.nodes)
			tgt, _ := pick(h.Rand, h.nodes)
			id := h.Rels
			switch k := h.Rand.Intn(10); {
			case k < 3 && len(h.rels) > 0:
				twin, _ := pick(h.Rand, h.rels)
				src, tgt = h.rels[twin][0], h.rels[twin][1]
			case k == 3:
				tgt = src
			case k == 4 && len(h.deadRel) > 0:
				id, _ = pick(h.Rand, h.deadRel)
				src, tgt = h.deadRel[id][0], h.deadRel[id][1]
			}
			if h.nodes[src] && h.nodes[tgt] && h.emit(model.AddRel(0, id, src, tgt, "R", h.props())) {
				h.rels[id] = [2]model.NodeID{src, tgt}
				h.degree[src]++
				h.degree[tgt]++
				if delete(h.deadRel, id); id == h.Rels {
					h.Rels++
				}
			}
		case r < 90: // update a relationship: the first few are hot
			id, ok := pick(h.Rand, h.rels)
			if _, live := h.rels[model.RelID(h.Rand.Intn(3))]; live && h.Rand.Intn(2) == 0 {
				id = model.RelID(h.Rand.Intn(3))
				_, ok = h.rels[id]
			}
			if ok {
				h.emit(model.UpdateRel(0, id, h.rels[id][0], h.rels[id][1], h.props(), nil))
			}
		default:
			if id, ok := pick(h.Rand, h.rels); ok && id > 2 && h.emit(model.DeleteRel(0, id, h.rels[id][0], h.rels[id][1])) {
				h.degree[h.rels[id][0]]--
				h.degree[h.rels[id][1]]--
				h.deadRel[id] = h.rels[id]
				delete(h.rels, id)
			}
		}
	}
	return h.Updates[from:]
}

// SameNodes reports whether two reads returned the same versions: ids,
// intervals, labels in order and properties.
func SameNodes(a, b []*model.Node) bool {
	return slices.EqualFunc(a, b, func(x, y *model.Node) bool {
		return x.ID == y.ID && x.Valid == y.Valid && slices.Equal(x.Labels, y.Labels) && x.Props.Equal(y.Props)
	})
}

// SameRels is SameNodes for relationships.
func SameRels(a, b []*model.Rel) bool {
	return slices.EqualFunc(a, b, func(x, y *model.Rel) bool {
		return x.ID == y.ID && x.Valid == y.Valid && x.Src == y.Src && x.Tgt == y.Tgt && x.Label == y.Label && x.Props.Equal(y.Props)
	})
}

// ShowNodes prints versions for a failure message.
func ShowNodes(ns []*model.Node) string {
	var b strings.Builder
	for _, n := range ns {
		fmt.Fprintf(&b, "n%d%v %v %d props;", n.ID, n.Valid, n.Labels, len(n.Props))
	}
	return b.String()
}

// ShowRels is ShowNodes for relationships.
func ShowRels(rs []*model.Rel) string {
	var b strings.Builder
	for _, r := range rs {
		fmt.Fprintf(&b, "r%d%v %d-[%s]->%d %d props;", r.ID, r.Valid, r.Src, r.Label, r.Tgt, len(r.Props))
	}
	return b.String()
}
