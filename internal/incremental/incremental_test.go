package incremental

import (
	"math"
	"math/rand"
	"testing"

	"aion/internal/algo"
	"aion/internal/csr"
	"aion/internal/memgraph"
	"aion/internal/model"
)

func TestAvgBasics(t *testing.T) {
	a := NewAvg(memgraph.New(), "w")
	if a.Value() != 0 {
		t.Error("empty avg must be 0")
	}
	a.ApplyDiff(nil, []model.Update{
		model.AddRel(1, 0, 0, 1, "R", model.Properties{"w": model.FloatValue(2)}),
		model.AddRel(2, 1, 0, 1, "R", model.Properties{"w": model.FloatValue(4)}),
	})
	if a.Value() != 3 || a.Count() != 2 {
		t.Errorf("avg = %v count = %d", a.Value(), a.Count())
	}
	// Update changes a contribution.
	a.ApplyDiff(nil, []model.Update{
		model.UpdateRel(3, 0, 0, 1, model.Properties{"w": model.FloatValue(6)}, nil),
	})
	if a.Value() != 5 {
		t.Errorf("avg after update = %v", a.Value())
	}
	// Deletion removes it.
	a.ApplyDiff(nil, []model.Update{model.DeleteRel(4, 0, 0, 1)})
	if a.Value() != 4 || a.Count() != 1 {
		t.Errorf("avg after delete = %v", a.Value())
	}
	// Property removal removes the contribution too.
	a.ApplyDiff(nil, []model.Update{model.UpdateRel(5, 1, 0, 1, nil, []string{"w"})})
	if a.Count() != 0 {
		t.Errorf("count after prop delete = %d", a.Count())
	}
	// Rels without the property are ignored.
	a.ApplyDiff(nil, []model.Update{model.AddRel(6, 2, 0, 1, "R", nil)})
	if a.Count() != 0 {
		t.Error("rel without property counted")
	}
}

func TestAvgInitFrom(t *testing.T) {
	g := memgraph.New()
	g.Apply(model.AddNode(1, 0, nil, nil))
	g.Apply(model.AddNode(1, 1, nil, nil))
	g.Apply(model.AddRel(2, 0, 0, 1, "R", model.Properties{"w": model.FloatValue(10)}))
	a := NewAvg(g, "w")
	if a.Value() != 10 {
		t.Errorf("init avg = %v", a.Value())
	}
}

func TestAvgMatchesRecomputeUnderRandomStream(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := memgraph.New()
	for i := 0; i < 20; i++ {
		g.Apply(model.AddNode(model.Timestamp(i+1), model.NodeID(i), nil, nil))
	}
	a := NewAvg(g, "w")
	live := map[model.RelID]bool{}
	next := model.RelID(0)
	ts := model.Timestamp(100)
	for step := 0; step < 1000; step++ {
		ts++
		var u model.Update
		switch rng.Intn(3) {
		case 0, 1:
			u = model.AddRel(ts, next, model.NodeID(rng.Intn(20)), model.NodeID(rng.Intn(20)),
				"R", model.Properties{"w": model.FloatValue(rng.Float64() * 100)})
			live[next] = true
			next++
		case 2:
			found := false
			for rid := range live {
				r := g.Rel(rid)
				u = model.DeleteRel(ts, rid, r.Src, r.Tgt)
				delete(live, rid)
				found = true
				break
			}
			if !found {
				continue
			}
		}
		if err := g.Apply(u); err != nil {
			t.Fatal(err)
		}
		a.ApplyDiff(g, []model.Update{u})
	}
	// Recompute from scratch.
	ref := NewAvg(g, "w")
	if math.Abs(a.Value()-ref.Value()) > 1e-9 {
		t.Errorf("incremental %v vs recompute %v", a.Value(), ref.Value())
	}
	if a.Count() != ref.Count() {
		t.Errorf("count %d vs %d", a.Count(), ref.Count())
	}
}

func applyAll(t *testing.T, g *memgraph.Graph, us []model.Update) {
	t.Helper()
	for _, u := range us {
		if err := g.Apply(u); err != nil {
			t.Fatalf("apply %v: %v", u, err)
		}
	}
}

func TestBFSIncrementalAdditions(t *testing.T) {
	g := memgraph.New()
	applyAll(t, g, []model.Update{
		model.AddNode(1, 0, nil, nil),
		model.AddNode(1, 1, nil, nil),
		model.AddNode(1, 2, nil, nil),
		model.AddRel(2, 0, 0, 1, "R", nil),
	})
	b := NewBFS(g, 0)
	if b.Levels()[2] != algo.Unreachable {
		t.Fatal("2 must start unreachable")
	}
	diff := []model.Update{model.AddRel(3, 1, 1, 2, "R", nil)}
	applyAll(t, g, diff)
	b.ApplyDiff(g, diff)
	if b.Levels()[2] != 2 {
		t.Errorf("level[2] = %d, want 2", b.Levels()[2])
	}
	// A shortcut lowers the level.
	diff = []model.Update{model.AddRel(4, 2, 0, 2, "R", nil)}
	applyAll(t, g, diff)
	b.ApplyDiff(g, diff)
	if b.Levels()[2] != 1 {
		t.Errorf("level[2] after shortcut = %d, want 1", b.Levels()[2])
	}
}

func TestBFSIncrementalDeletionTagAndReset(t *testing.T) {
	// Diamond: 0->1->3, 0->2->3; deleting 1->3 keeps 3 at level 2 via 2;
	// deleting 2->3 as well makes 3 unreachable.
	g := memgraph.New()
	applyAll(t, g, []model.Update{
		model.AddNode(1, 0, nil, nil),
		model.AddNode(1, 1, nil, nil),
		model.AddNode(1, 2, nil, nil),
		model.AddNode(1, 3, nil, nil),
		model.AddRel(2, 0, 0, 1, "R", nil),
		model.AddRel(2, 1, 0, 2, "R", nil),
		model.AddRel(2, 2, 1, 3, "R", nil),
		model.AddRel(2, 3, 2, 3, "R", nil),
	})
	b := NewBFS(g, 0)
	if b.Levels()[3] != 2 {
		t.Fatal("setup")
	}
	diff := []model.Update{model.DeleteRel(3, 2, 1, 3)}
	applyAll(t, g, diff)
	b.ApplyDiff(g, diff)
	if b.Levels()[3] != 2 {
		t.Errorf("level[3] = %d, want 2 (via node 2)", b.Levels()[3])
	}
	diff = []model.Update{model.DeleteRel(4, 3, 2, 3)}
	applyAll(t, g, diff)
	b.ApplyDiff(g, diff)
	if b.Levels()[3] != algo.Unreachable {
		t.Errorf("level[3] = %d, want unreachable", b.Levels()[3])
	}
}

func TestBFSIncrementalMatchesFullRecompute(t *testing.T) {
	// Random evolving graph: after every batch, incremental levels must
	// equal a from-scratch BFS.
	rng := rand.New(rand.NewSource(8))
	const n = 60
	g := memgraph.New()
	for i := 0; i < n; i++ {
		applyAll(t, g, []model.Update{model.AddNode(model.Timestamp(i+1), model.NodeID(i), nil, nil)})
	}
	b := NewBFS(g, 0)
	live := map[model.RelID][2]model.NodeID{}
	next := model.RelID(0)
	ts := model.Timestamp(1000)
	for batch := 0; batch < 40; batch++ {
		var diff []model.Update
		for k := 0; k < 10; k++ {
			ts++
			if rng.Intn(3) != 2 || len(live) == 0 {
				src, tgt := model.NodeID(rng.Intn(n)), model.NodeID(rng.Intn(n))
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
		applyAll(t, g, diff)
		b.ApplyDiff(g, diff)
		want := algo.BFS(g, 0)
		got := b.Levels()
		for i := 0; i < n; i++ {
			if got[i] != want[i] {
				t.Fatalf("batch %d node %d: incremental %d vs full %d",
					batch, i, got[i], want[i])
			}
		}
	}
}

func TestPageRankIncrementalMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g := memgraph.New()
	const n = 80
	for i := 0; i < n; i++ {
		g.Apply(model.AddNode(model.Timestamp(i+1), model.NodeID(i), nil, nil))
	}
	ts := model.Timestamp(1000)
	rid := model.RelID(0)
	for i := 0; i < 300; i++ {
		ts++
		g.Apply(model.AddRel(ts, rid, model.NodeID(rng.Intn(n)), model.NodeID(rng.Intn(n)), "R", nil))
		rid++
	}
	opts := algo.PageRankOptions{Epsilon: 1e-9, MaxIter: 500}
	inc := NewPageRank(g, opts)
	coldIters := inc.LastIterations

	// Apply a small delta and re-run: warm start must converge faster and
	// to the same values as a cold run.
	for i := 0; i < 10; i++ {
		ts++
		g.Apply(model.AddRel(ts, rid, model.NodeID(rng.Intn(n)), model.NodeID(rng.Intn(n)), "R", nil))
		rid++
	}
	inc.ApplyDiff(g, nil)
	second := inc.ranks
	warmIters := inc.LastIterations
	if warmIters >= coldIters {
		t.Errorf("warm iterations %d >= cold %d", warmIters, coldIters)
	}
	c := csr.Build(g)
	coldRanks, _ := algo.PageRank(c, opts)
	for i, sid := range c.Dense.ToSparse {
		if math.Abs(coldRanks[i]-second[sid]) > 1e-6 {
			t.Fatalf("rank mismatch at %d: %v vs %v", sid, coldRanks[i], second[sid])
		}
	}
}

// TestPageRankTopBreaksTiesByLowestID: Top is the highest rank, the lowest
// id among equal ranks, whatever order the map yields them in.
func TestPageRankTopBreaksTiesByLowestID(t *testing.T) {
	p := &PageRank{}
	if id, r := p.Top(); id != -1 || r != 0 {
		t.Errorf("empty Top = %d, %v; want -1, 0", id, r)
	}
	p.ranks = map[model.NodeID]float64{9: 0.2, 7: 0.4, 3: 0.1, 5: 0.4, 8: 0.4}
	for run := 0; run < 20; run++ {
		if id, r := p.Top(); id != 5 || r != 0.4 {
			t.Fatalf("Top = %d, %v; want 5, 0.4", id, r)
		}
	}
}
