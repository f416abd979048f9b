package aion

import (
	"context"
	"testing"

	"aion/internal/memgraph"
	"aion/internal/model"
)

func TestExpandRange(t *testing.T) {
	ctx := context.Background()
	db := openDB(t, Options{})
	// Line graph built over time: 0->1 at ts 3, 1->2 at ts 4.
	db.ApplyBatch([]model.Update{
		model.AddNode(1, 0, nil, nil),
		model.AddNode(1, 1, nil, nil),
		model.AddNode(2, 2, nil, nil),
		model.AddRel(3, 0, 0, 1, "R", nil),
		model.AddRel(4, 1, 1, 2, "R", nil),
	})
	db.WaitSync()
	series, err := db.ExpandRangeContext(ctx, 0, model.Outgoing, 2, 2, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("series length = %d", len(series))
	}
	// ts 2: no rels; ts 3: hop1={1}; ts 4: hop1={1}, hop2={2}.
	if len(series[0][0]) != 0 {
		t.Errorf("ts 2 hop1 = %d", len(series[0][0]))
	}
	if len(series[1][0]) != 1 || len(series[1][1]) != 0 {
		t.Errorf("ts 3 = %d/%d", len(series[1][0]), len(series[1][1]))
	}
	if len(series[2][0]) != 1 || len(series[2][1]) != 1 {
		t.Errorf("ts 4 = %d/%d", len(series[2][0]), len(series[2][1]))
	}
	if _, err := db.ExpandRangeContext(ctx, 0, model.Outgoing, 2, 2, 4, 0); err == nil {
		t.Error("zero step must fail")
	}
	if _, err := db.ExpandRangeContext(ctx, 0, model.Outgoing, 2, 4, 2, 1); err == nil {
		t.Error("inverted range must fail")
	}
}

func TestScanGraphsThroughDB(t *testing.T) {
	db := openDB(t, Options{})
	db.ApplyBatch(socialUpdates())
	n := 0
	err := db.ScanGraphsContext(context.Background(), 1, 10, 1, func(g *memgraph.Graph) bool {
		if g.NodeCount() != n+1 {
			t.Errorf("snapshot %d has %d nodes", n, g.NodeCount())
		}
		n++
		return true
	})
	if err != nil || n != 10 {
		t.Fatalf("scan: %v n=%d", err, n)
	}
}
