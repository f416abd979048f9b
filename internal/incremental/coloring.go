package incremental

import (
	"aion/internal/memgraph"
	"aion/internal/model"
)

// Coloring maintains a greedy proper colouring across snapshots — the
// paper's second example of a non-monotonic algorithm that converges to a
// correct result independently of node initialization (Sec 5.2): after a
// diff, only nodes whose colour now conflicts with a neighbour are
// recoloured, and changes propagate along dependencies.
type Coloring struct {
	color []int32 // -1 = uncoloured / absent
}

// NewColoring colours g greedily, in node id order.
func NewColoring(g *memgraph.Graph) *Coloring {
	c := &Coloring{color: grow(nil, g.MaxNodeID(), int32(-1))}
	for id := range g.MaxNodeID() {
		if g.HasNode(id) {
			c.color[id] = c.smallestFree(g, id)
		}
	}
	return c
}

// NumColors returns the number of distinct colours in use.
func (c *Coloring) NumColors() int {
	seen := map[int32]bool{}
	for _, col := range c.color {
		if col >= 0 {
			seen[col] = true
		}
	}
	return len(seen)
}

// smallestFree finds the smallest colour not used by any neighbour
// (undirected adjacency).
func (c *Coloring) smallestFree(g *memgraph.Graph, id model.NodeID) int32 {
	used := map[int32]bool{}
	g.EachNeighbour(id, model.Both, func(_ model.RelID, nb model.NodeID) bool {
		if nb != id && int(nb) < len(c.color) && c.color[nb] >= 0 {
			used[c.color[nb]] = true
		}
		return true
	})
	for col := int32(0); ; col++ {
		if !used[col] {
			return col
		}
	}
}

// ApplyDiff repairs the colouring after the updates in us have been applied
// to g: only conflicted nodes are recoloured, and recolouring cascades to
// neighbours it newly conflicts with.
func (c *Coloring) ApplyDiff(g *memgraph.Graph, us []model.Update) {
	c.color = grow(c.color, g.MaxNodeID(), -1)
	var dirty []model.NodeID
	for _, u := range us {
		switch u.Kind {
		case model.OpAddNode:
			c.color = grow(c.color, u.NodeID+1, -1)
			c.color[u.NodeID] = c.smallestFree(g, u.NodeID)
		case model.OpDeleteNode:
			if int(u.NodeID) < len(c.color) {
				c.color[u.NodeID] = -1
			}
		case model.OpAddRel:
			// Only a same-colour edge creates a conflict; checking the
			// two endpoint colours is O(1), so non-conflicting additions
			// (the vast majority) cost nothing.
			if u.Src != u.Tgt &&
				int(u.Src) < len(c.color) && int(u.Tgt) < len(c.color) &&
				c.color[u.Src] >= 0 && c.color[u.Src] == c.color[u.Tgt] {
				dirty = append(dirty, u.Tgt)
			}
		case model.OpDeleteRel:
			// Deletions never create conflicts; colours stay valid
			// (possibly using more colours than necessary — greedy).
		}
	}
	// Resolve conflicts with bounded cascading.
	for len(dirty) > 0 {
		v := dirty[0]
		dirty = dirty[1:]
		if !g.HasNode(v) || c.color[v] < 0 {
			continue
		}
		conflict := false
		g.EachNeighbour(v, model.Both, func(_ model.RelID, nb model.NodeID) bool {
			if nb != v && c.color[nb] == c.color[v] {
				conflict = true
				return false
			}
			return true
		})
		if !conflict {
			continue
		}
		c.color[v] = c.smallestFree(g, v)
		// Recolouring v cannot conflict (smallestFree excludes all
		// neighbour colours), so no cascade is needed — but neighbours
		// queued earlier are still checked.
	}
}
