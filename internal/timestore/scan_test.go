package timestore

import (
	"context"
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
	eager, err := s.GetGraphsContext(ctx, 2, 18, 4)
	if err != nil {
		t.Fatal(err)
	}
	var lazyCounts [][2]int
	err = s.ScanGraphsContext(ctx, 2, 18, 4, func(g *memgraph.Graph) bool {
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
