package aion

import (
	"math"
	"testing"
	"time"

	"aion/internal/model"
)

// loopFraction is EstimateExpandFraction as a loop over the hops, one frontier
// growth each: the estimate's definition.
func loopFraction(nodes int64, deg float64, hops int) float64 {
	touched, frontier := 1.0, 1.0
	for h := 0; h < hops; h++ {
		frontier *= deg
		touched += frontier
		if touched >= float64(nodes) {
			return 1.0
		}
	}
	return touched / float64(nodes)
}

func statsOf(nodes, rels int64) *GraphStats {
	s := &GraphStats{}
	s.nodes.Store(nodes)
	s.rels.Store(rels)
	return s
}

// The closed form is the loop, to rounding, at every hop count up to 64 on
// sparse, ring-like and dense graphs, small and large, in both directions.
func TestExpandFractionIsTheGeometricSum(t *testing.T) {
	for _, nodes := range []int64{10, 1e12} {
		for _, deg := range []float64{0.3, 1, 3} {
			s := statsOf(nodes, int64(deg*float64(nodes)))
			for _, d := range []model.Direction{model.Outgoing, model.Both} {
				eff := deg
				if d == model.Both {
					eff *= 2
				}
				for hops := 0; hops <= 64; hops++ {
					got, want := s.EstimateExpandFraction(hops, d), loopFraction(nodes, eff, hops)
					if math.Abs(got-want) > 1e-12*want {
						t.Errorf("%d nodes, degree %v, %v, %d hops: %v, the loop gives %v", nodes, deg, d, hops, got, want)
					}
				}
			}
		}
	}
}

// A hop count far past any graph's diameter costs what one hop does.
func TestExpandFractionOfAHugeHopCount(t *testing.T) {
	for _, deg := range []float64{0.3, 1, 3} {
		s := statsOf(1e12, int64(deg*1e12))
		start := time.Now()
		got := s.EstimateExpandFraction(1e9, model.Outgoing)
		if took := time.Since(start); took > time.Millisecond {
			t.Errorf("degree %v: 10^9 hops took %v", deg, took)
		}
		if want := map[float64]float64{0.3: 1 / 0.7 / 1e12, 1: (1e9 + 1) / 1e12, 3: 1}[deg]; math.Abs(got-want) > 1e-9*want {
			t.Errorf("degree %v: 10^9 hops touch %v of the graph, want %v", deg, got, want)
		}
	}
}
