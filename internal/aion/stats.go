package aion

import (
	"math"
	"sync/atomic"

	"aion/internal/model"
)

// GraphStats is what Aion's planner estimates an expand's reach from (Sec
// 5.1): the number of live nodes and relationships, moved by the update
// stream. Sec 5.1 also keeps label, type and pattern histograms; nothing here
// routes by them, and the host's resident graph holds every label and type
// should a planner need them, so they are not kept a second time.
type GraphStats struct {
	nodes, rels atomic.Int64
}

// apply moves the counters by one batch's creations and deletions.
func (s *GraphStats) apply(us []model.Update) {
	var nodes, rels int64
	for _, u := range us {
		switch u.Kind {
		case model.OpAddNode:
			nodes++
		case model.OpDeleteNode:
			nodes--
		case model.OpAddRel:
			rels++
		case model.OpDeleteRel:
			rels--
		}
	}
	s.nodes.Add(nodes)
	s.rels.Add(rels)
}

// Nodes returns the tracked node count.
func (s *GraphStats) Nodes() int64 { return s.nodes.Load() }

// Rels returns the tracked relationship count.
func (s *GraphStats) Rels() int64 { return s.rels.Load() }

// AvgDegree returns the average out-degree |E| / |V|.
func (s *GraphStats) AvgDegree() float64 {
	nodes := s.nodes.Load()
	if nodes == 0 {
		return 0
	}
	return float64(s.rels.Load()) / float64(nodes)
}

// EstimateExpandFraction estimates the fraction of the graph an n-hop
// expansion from a single node touches: frontier growth by the average
// degree, 1 + deg + … + deg^hops nodes in closed form, capped at the full
// graph.
func (s *GraphStats) EstimateExpandFraction(hops int, dir model.Direction) float64 {
	nodes := s.nodes.Load()
	if nodes == 0 {
		return 0
	}
	deg := s.AvgDegree()
	if dir == model.Both {
		deg *= 2
	}
	touched := float64(max(hops, 0)) + 1
	if deg != 1 {
		touched = (math.Pow(deg, touched) - 1) / (deg - 1)
	}
	return min(touched/float64(nodes), 1)
}
