package incremental

import (
	"math"
	"math/rand"
	"testing"

	"aion/internal/algo"
	"aion/internal/memgraph"
	"aion/internal/model"
)

func weighted(t *testing.T, n int, edges [][3]int) *memgraph.Graph {
	t.Helper()
	g := memgraph.New()
	ts := model.Timestamp(1)
	for i := 0; i < n; i++ {
		if err := g.Apply(model.AddNode(ts, model.NodeID(i), nil, nil)); err != nil {
			t.Fatal(err)
		}
		ts++
	}
	for i, e := range edges {
		props := model.Properties{"w": model.FloatValue(float64(e[2]))}
		if err := g.Apply(model.AddRel(ts, model.RelID(i), model.NodeID(e[0]), model.NodeID(e[1]), "R", props)); err != nil {
			t.Fatal(err)
		}
		ts++
	}
	return g
}

func TestIncrementalSSSPAdditions(t *testing.T) {
	g := weighted(t, 3, [][3]int{{0, 1, 5}})
	s := NewSSSP(g, 0, "w")
	if s.Distances()[1] != 5 || !math.IsInf(s.Distances()[2], 1) {
		t.Fatal("seed distances")
	}
	// A cheaper two-hop route appears.
	diff := []model.Update{
		model.AddRel(100, 10, 0, 2, "R", model.Properties{"w": model.FloatValue(1)}),
		model.AddRel(101, 11, 2, 1, "R", model.Properties{"w": model.FloatValue(1)}),
	}
	for _, u := range diff {
		g.Apply(u)
	}
	s.ApplyDiff(g, diff)
	if s.Distances()[1] != 2 {
		t.Errorf("dist[1] = %v, want 2", s.Distances()[1])
	}
}

func TestIncrementalSSSPDeletionTagAndReset(t *testing.T) {
	// Two routes to 2: direct (w=10) and via 1 (w=2+2=4). Deleting the
	// cheap route falls back to the direct edge.
	g := weighted(t, 3, [][3]int{{0, 2, 10}, {0, 1, 2}, {1, 2, 2}})
	s := NewSSSP(g, 0, "w")
	if s.Distances()[2] != 4 {
		t.Fatal("seed")
	}
	diff := []model.Update{model.DeleteRel(100, 2, 1, 2)}
	g.Apply(diff[0])
	s.ApplyDiff(g, diff)
	if s.Distances()[2] != 10 {
		t.Errorf("dist[2] after delete = %v, want 10", s.Distances()[2])
	}
	// Deleting the last route disconnects node 2.
	diff = []model.Update{model.DeleteRel(101, 0, 0, 2)}
	g.Apply(diff[0])
	s.ApplyDiff(g, diff)
	if !math.IsInf(s.Distances()[2], 1) {
		t.Errorf("dist[2] = %v, want +Inf", s.Distances()[2])
	}
}

func TestIncrementalSSSPWeightUpdates(t *testing.T) {
	g := weighted(t, 3, [][3]int{{0, 1, 4}, {0, 2, 3}, {2, 1, 3}})
	s := NewSSSP(g, 0, "w")
	if s.Distances()[1] != 4 {
		t.Fatal("seed")
	}
	// Lowering the 0->2 weight makes the two-hop route cheaper.
	diff := []model.Update{model.UpdateRel(100, 1, 0, 2, model.Properties{"w": model.FloatValue(0.5)}, nil)}
	g.Apply(diff[0])
	s.ApplyDiff(g, diff)
	if s.Distances()[1] != 3.5 {
		t.Errorf("dist[1] = %v, want 3.5", s.Distances()[1])
	}
	// Raising the direct edge weight invalidates and recomputes.
	diff = []model.Update{model.UpdateRel(101, 0, 0, 1, model.Properties{"w": model.FloatValue(100)}, nil)}
	g.Apply(diff[0])
	s.ApplyDiff(g, diff)
	if s.Distances()[1] != 3.5 {
		t.Errorf("dist[1] after raise = %v, want 3.5 (via 2)", s.Distances()[1])
	}
}

func TestIncrementalSSSPMatchesFullRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const n = 40
	g := memgraph.New()
	for i := 0; i < n; i++ {
		g.Apply(model.AddNode(model.Timestamp(i+1), model.NodeID(i), nil, nil))
	}
	s := NewSSSP(g, 0, "w")
	live := map[model.RelID][2]model.NodeID{}
	next := model.RelID(0)
	ts := model.Timestamp(1000)
	for batch := 0; batch < 30; batch++ {
		var diff []model.Update
		for k := 0; k < 8; k++ {
			ts++
			switch {
			case rng.Intn(3) != 2 || len(live) == 0:
				src, tgt := model.NodeID(rng.Intn(n)), model.NodeID(rng.Intn(n))
				w := float64(1 + rng.Intn(9))
				u := model.AddRel(ts, next, src, tgt, "R",
					model.Properties{"w": model.FloatValue(w)})
				live[next] = [2]model.NodeID{src, tgt}
				next++
				diff = append(diff, u)
			default:
				for rid, ends := range live {
					diff = append(diff, model.DeleteRel(ts, rid, ends[0], ends[1]))
					delete(live, rid)
					break
				}
			}
		}
		for _, u := range diff {
			if err := g.Apply(u); err != nil {
				t.Fatal(err)
			}
		}
		s.ApplyDiff(g, diff)
		want := algo.SSSP(g, 0, "w")
		got := s.Distances()
		for i := 0; i < n; i++ {
			if math.Abs(got[i]-want[i]) > 1e-9 &&
				!(math.IsInf(got[i], 1) && math.IsInf(want[i], 1)) {
				t.Fatalf("batch %d node %d: incremental %v vs full %v",
					batch, i, got[i], want[i])
			}
		}
	}
}

func TestColoringBasics(t *testing.T) {
	// Triangle needs 3 colours; adding a pendant node stays at 3.
	g := weighted(t, 3, [][3]int{{0, 1, 1}, {1, 2, 1}, {2, 0, 1}})
	c := NewColoring(g)
	if !c.Validate(g) {
		t.Fatal("seed colouring invalid")
	}
	if c.NumColors() != 3 {
		t.Errorf("triangle colours = %d", c.NumColors())
	}
	diff := []model.Update{
		model.AddNode(100, 3, nil, nil),
		model.AddRel(101, 10, 3, 0, "R", nil),
	}
	for _, u := range diff {
		g.Apply(u)
	}
	c.ApplyDiff(g, diff)
	if !c.Validate(g) {
		t.Error("colouring invalid after additions")
	}
}

func TestColoringStaysProperUnderRandomEvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n = 50
	g := memgraph.New()
	for i := 0; i < n; i++ {
		g.Apply(model.AddNode(model.Timestamp(i+1), model.NodeID(i), nil, nil))
	}
	c := NewColoring(g)
	live := map[model.RelID][2]model.NodeID{}
	next := model.RelID(0)
	ts := model.Timestamp(1000)
	for batch := 0; batch < 40; batch++ {
		var diff []model.Update
		for k := 0; k < 10; k++ {
			ts++
			if rng.Intn(4) != 3 || len(live) == 0 {
				src, tgt := model.NodeID(rng.Intn(n)), model.NodeID(rng.Intn(n))
				if src == tgt {
					continue
				}
				u := model.AddRel(ts, next, src, tgt, "R", nil)
				live[next] = [2]model.NodeID{src, tgt}
				next++
				diff = append(diff, u)
			} else {
				for rid, ends := range live {
					diff = append(diff, model.DeleteRel(ts, rid, ends[0], ends[1]))
					delete(live, rid)
					break
				}
			}
		}
		for _, u := range diff {
			if err := g.Apply(u); err != nil {
				t.Fatal(err)
			}
		}
		c.ApplyDiff(g, diff)
		if !c.Validate(g) {
			t.Fatalf("batch %d: colouring became improper", batch)
		}
	}
}

// Validate reports whether the colouring is proper on g (for tests).
func (c *Coloring) Validate(g *memgraph.Graph) bool {
	ok := true
	g.ForEachRel(func(r *model.Rel) bool {
		if r.Src != r.Tgt && c.color[r.Src] == c.color[r.Tgt] {
			ok = false
			return false
		}
		return true
	})
	return ok
}
