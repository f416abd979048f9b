package aion

import (
	"context"
	"errors"
	"math"
	"slices"
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
	// ts 2: no rels; ts 3: hop1={1}; ts 4: hop1={1}, hop2={2}. The result
	// ends at the last hop that reaches a node.
	for i, want := range [][]int{{}, {1}, {1, 1}} {
		got := []int{}
		for _, hop := range series[i] {
			got = append(got, len(hop))
		}
		if !slices.Equal(got, want) {
			t.Errorf("ts %d: %v nodes per hop, want %v", i+2, got, want)
		}
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

// expandOnSnapshot is Alg 1 on the TimeStore's snapshot at ts.
func expandOnSnapshot(ctx context.Context, db *DB, id model.NodeID, d model.Direction, hops int, ts model.Timestamp) ([][]*model.Node, error) {
	g, err := db.GraphAtContext(ctx, ts)
	if err != nil {
		return nil, err
	}
	return Expand(ctx, g, id, d, hops)
}

func TestExpandMatchesAlg1(t *testing.T) {
	ctx := context.Background()
	// Star: 0 -> 1,2; 1 -> 3; 3 -> 4. All at ts 1..7.
	db := openDB(t, Options{})
	if err := db.ApplyBatch([]model.Update{
		model.AddNode(1, 0, nil, nil),
		model.AddNode(1, 1, nil, nil),
		model.AddNode(1, 2, nil, nil),
		model.AddNode(1, 3, nil, nil),
		model.AddNode(1, 4, nil, nil),
		model.AddRel(2, 0, 0, 1, "R", nil),
		model.AddRel(3, 1, 0, 2, "R", nil),
		model.AddRel(4, 2, 1, 3, "R", nil),
		model.AddRel(5, 3, 3, 4, "R", nil),
	}); err != nil {
		t.Fatal(err)
	}
	res, err := Expand(ctx, db.View(ctx, 10), 0, model.Outgoing, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res[0]) != 2 {
		t.Errorf("hop 1: %d nodes", len(res[0]))
	}
	if len(res[1]) != 1 || res[1][0].ID != 3 {
		t.Errorf("hop 2: %v", res[1])
	}
	if len(res[2]) != 1 || res[2][0].ID != 4 {
		t.Errorf("hop 3: %v", res[2])
	}
	// Expanding at a time before the rels existed finds nothing.
	res, _ = Expand(ctx, db.View(ctx, 1), 0, model.Outgoing, 3)
	if len(res) != 0 {
		t.Error("expand before rels must be empty")
	}
	// Incoming direction walks the reverse edges.
	res, _ = Expand(ctx, db.View(ctx, 10), 4, model.Incoming, 2)
	if len(res[0]) != 1 || res[0][0].ID != 3 {
		t.Errorf("incoming hop 1: %v", res[0])
	}
	if len(res[1]) != 1 || res[1][0].ID != 1 {
		t.Errorf("incoming hop 2: %v", res[1])
	}
}

func TestExpandDirectionBoth(t *testing.T) {
	ctx := context.Background()
	db := openDB(t, Options{})
	if err := db.ApplyBatch([]model.Update{
		model.AddNode(1, 0, nil, nil),
		model.AddNode(1, 1, nil, nil),
		model.AddNode(1, 2, nil, nil),
		model.AddRel(2, 0, 0, 1, "R", nil), // out of 0
		model.AddRel(3, 1, 2, 0, "R", nil), // in to 0
	}); err != nil {
		t.Fatal(err)
	}
	res, err := Expand(ctx, db.View(ctx, 5), 0, model.Both, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res[0]) != 2 {
		t.Errorf("both-direction hop: %d nodes", len(res[0]))
	}
}

// A negative hop count is an error at both expand entries, not a panic.
func TestNegativeHopsFail(t *testing.T) {
	ctx := context.Background()
	db := openDB(t, Options{})
	if _, err := db.ExpandContext(ctx, 0, model.Outgoing, -1, 0); err == nil {
		t.Error("Expand by -1 hops must fail")
	}
	if _, err := db.ExpandRangeContext(ctx, 0, model.Outgoing, -1, 0, 2, 1); err == nil {
		t.Error("an expand range by -1 hops must fail")
	}
}
