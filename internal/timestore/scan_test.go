package timestore

import (
	"context"
	"math"
	"testing"

	"aion/internal/memgraph"
	"aion/internal/model"
)

func TestScanGraphsMatchesEager(t *testing.T) {
	ctx := context.Background()
	s := openStore(t, Options{SnapshotEveryOps: 6})
	if err := s.AppendBatch(chainUpdates(10)); err != nil {
		t.Fatal(err)
	}
	var eager []*memgraph.Graph
	for ts := model.Timestamp(2); ts <= 18; ts += 4 {
		g, err := s.GetGraphContext(ctx, ts)
		if err != nil {
			t.Fatal(err)
		}
		eager = append(eager, g)
	}
	var lazyCounts [][2]int
	err := s.ScanGraphsContext(ctx, 2, 18, 4, func(g *memgraph.Graph) bool {
		lazyCounts = append(lazyCounts, [2]int{g.NodeCount(), g.RelCount()})
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(lazyCounts) != len(eager) {
		t.Fatalf("lazy %d vs eager %d snapshots", len(lazyCounts), len(eager))
	}
	for i, g := range eager {
		if lazyCounts[i][0] != g.NodeCount() || lazyCounts[i][1] != g.RelCount() {
			t.Errorf("snapshot %d: lazy %v vs eager %d/%d",
				i, lazyCounts[i], g.NodeCount(), g.RelCount())
		}
	}
}

// TestScanGraphsToMaxInt64: a series whose end is MaxInt64 stops at its
// last step instead of wrapping, and applies every update up to it.
func TestScanGraphsToMaxInt64(t *testing.T) {
	s := openStore(t, Options{})
	s.AppendBatch(chainUpdates(6))
	var steps []model.Timestamp
	var nodes []int
	err := s.ScanGraphsContext(context.Background(), 1, math.MaxInt64, 1<<62, func(g *memgraph.Graph) bool {
		steps, nodes = append(steps, g.Timestamp()), append(nodes, g.NodeCount())
		return true
	})
	if err != nil || len(steps) != 2 || steps[0] != 1 || steps[1] != 1+1<<62 || nodes[0] != 1 || nodes[1] != 6 {
		t.Fatalf("steps %v with %v nodes (%v), want [1 %d] with [1 6]", steps, nodes, err, model.Timestamp(1+1<<62))
	}
}

func TestScanGraphsEarlyStop(t *testing.T) {
	s := openStore(t, Options{})
	s.AppendBatch(chainUpdates(10))
	n := 0
	err := s.ScanGraphsContext(context.Background(), 1, 19, 1, func(g *memgraph.Graph) bool {
		n++
		return n < 3
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("visited %d snapshots", n)
	}
}

func TestScanGraphsValidation(t *testing.T) {
	ctx := context.Background()
	s := openStore(t, Options{})
	s.AppendBatch(chainUpdates(3))
	if err := s.ScanGraphsContext(ctx, 0, 5, 0, func(*memgraph.Graph) bool { return true }); err == nil {
		t.Error("zero step must fail")
	}
	if err := s.ScanGraphsContext(ctx, 5, 0, 1, func(*memgraph.Graph) bool { return true }); err == nil {
		t.Error("inverted range must fail")
	}
}

func TestScanGraphsRetainRequiresClone(t *testing.T) {
	s := openStore(t, Options{})
	s.AppendBatch(chainUpdates(6))
	var retained []*memgraph.Graph
	s.ScanGraphsContext(context.Background(), 1, 6, 1, func(g *memgraph.Graph) bool {
		retained = append(retained, g.Clone())
		return true
	})
	// Each clone reflects its own timestamp's node count.
	for i, g := range retained {
		if g.NodeCount() != i+1 {
			t.Errorf("clone %d has %d nodes", i, g.NodeCount())
		}
		if g.Timestamp() != model.Timestamp(i+1) {
			t.Errorf("clone %d ts = %d", i, g.Timestamp())
		}
	}
}

// getGraphs is the eager series: every snapshot of ScanGraphsContext,
// cloned.
func getGraphs(ctx context.Context, s *Store, start, end, step model.Timestamp) ([]*memgraph.Graph, error) {
	var out []*memgraph.Graph
	err := s.ScanGraphsContext(ctx, start, end, step, func(g *memgraph.Graph) bool {
		out = append(out, g.Clone())
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
