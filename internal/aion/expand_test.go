package aion

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"

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
	// A series whose end is MaxInt64 stops at its last step instead of
	// wrapping back to negative time.
	if series, err := db.ExpandRangeContext(ctx, 0, model.Outgoing, 1, 1, math.MaxInt64, 1<<62); err != nil || len(series) != 2 {
		t.Errorf("series to MaxInt64: %v, %d steps, want 2", err, len(series))
	}
	// A series too long to finish stops at its context's deadline and
	// returns no partial result, whichever check of ctx sees the deadline.
	for n := int64(0); n < 20; n++ {
		dctx := &errAfter{Context: ctx}
		dctx.left.Store(n)
		if series, err := db.ExpandRangeContext(dctx, 0, model.Outgoing, 1, 1, math.MaxInt64, 1); !errors.Is(err, context.DeadlineExceeded) || series != nil {
			t.Errorf("deadline at ctx check %d: %v, %d steps; want the deadline and no series", n, err, len(series))
		}
	}
}

// errAfter is a context whose Err reports a passed deadline once it has
// answered nil left times.
type errAfter struct {
	context.Context
	left atomic.Int64
}

func (c *errAfter) Err() error {
	if c.left.Add(-1) < 0 {
		return context.DeadlineExceeded
	}
	return nil
}

// TestScanGraphsThroughDB: GetGraph's series is one snapshot per step,
// each the graph at its own timestamp.
func TestScanGraphsThroughDB(t *testing.T) {
	db := openDB(t, Options{})
	db.ApplyBatch(socialUpdates())
	graphs, err := db.GetGraphContext(context.Background(), 1, 10, 1)
	if err != nil || len(graphs) != 10 {
		t.Fatalf("series: %v, %d graphs", err, len(graphs))
	}
	for i, g := range graphs {
		if g.NodeCount() != i+1 || g.Timestamp() != model.Timestamp(i+1) {
			t.Errorf("snapshot %d has %d nodes at ts %d", i, g.NodeCount(), g.Timestamp())
		}
	}
}
