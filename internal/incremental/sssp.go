package incremental

import (
	"math"

	"aion/internal/algo"
	"aion/internal/memgraph"
	"aion/internal/model"
)

// SSSP maintains single-source shortest path distances across snapshots —
// the second monotonic path-based algorithm of Sec 5.2. Like incremental
// BFS it uses tag and reset for deletions: distances that may have depended
// on a removed edge are invalidated transitively and re-relaxed from the
// intact frontier; edge additions relax locally.
type SSSP struct {
	src  model.NodeID
	prop string
	dist []float64
}

// NewSSSP runs SSSP from src on g, weights read from the relationship
// property weightProp (see algo.Weight).
func NewSSSP(g *memgraph.Graph, src model.NodeID, weightProp string) *SSSP {
	return &SSSP{src: src, prop: weightProp, dist: algo.SSSP(g, src, weightProp)}
}

// Distances returns the current distance vector indexed by sparse node id
// (+Inf where unreachable). Callers must not mutate it.
func (s *SSSP) Distances() []float64 { return s.dist }

// ApplyDiff updates the distances after the updates in us have been applied
// to g (the post-diff snapshot).
func (s *SSSP) ApplyDiff(g *memgraph.Graph, us []model.Update) {
	s.dist = grow(s.dist, g.MaxNodeID(), math.Inf(1))
	var seeds, suspects []model.NodeID

	for _, u := range us {
		switch u.Kind {
		case model.OpAddRel:
			// Relax the new edge locally; weight read from the live rel.
			if du := s.dist[u.Src]; !math.IsInf(du, 1) {
				if _, _, live := g.Ends(u.RelID); !live {
					continue // added and deleted within the same diff
				}
				if nd := du + algo.Weight(g, u.RelID, s.prop); nd < s.dist[u.Tgt] {
					s.dist[u.Tgt] = nd
					seeds = append(seeds, u.Tgt)
				}
			}
		case model.OpUpdateRel:
			// A weight change can lower (relax) or raise (suspect) a path.
			src, tgt, live := g.Ends(u.RelID)
			if !live {
				continue
			}
			if du := s.dist[src]; !math.IsInf(du, 1) {
				nd := du + algo.Weight(g, u.RelID, s.prop)
				switch {
				case nd < s.dist[tgt]:
					s.dist[tgt] = nd
					seeds = append(seeds, tgt)
				case nd > s.dist[tgt]:
					suspects = append(suspects, tgt)
				}
			}
		case model.OpDeleteRel:
			if int(u.Tgt) < len(s.dist) && !math.IsInf(s.dist[u.Tgt], 1) {
				suspects = append(suspects, u.Tgt)
			}
		case model.OpDeleteNode:
			if int(u.NodeID) < len(s.dist) {
				s.dist[u.NodeID] = math.Inf(1)
			}
		case model.OpAddNode:
			s.dist = grow(s.dist, u.NodeID+1, math.Inf(1))
			if u.NodeID == s.src {
				s.dist[s.src] = 0
				seeds = append(seeds, s.src)
			}
		}
	}

	// An in-edge justifies a distance it matches within rounding.
	boundary := tagAndReset(g, s.src, s.dist, math.Inf(1), suspects, func(rid model.RelID, nb, v model.NodeID) bool {
		return math.Abs(s.dist[nb]+algo.Weight(g, rid, s.prop)-s.dist[v]) < 1e-12
	})
	algo.RelaxSSSP(g, s.prop, s.dist, append(seeds, boundary...))
}
