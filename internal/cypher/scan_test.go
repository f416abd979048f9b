package cypher

import (
	"context"
	"testing"

	"aion/internal/hostdb"
	"aion/internal/model"
)

// An unanchored scan pays per node for its row (a bindings map, two
// allocations) and for the node it binds, built on read from memgraph's
// records (the node, and its property map: three). The bounds keep count(*)
// over the current graph, and over the snapshot an AS OF query rebuilds,
// from paying more per node than that.
func TestScanAllocationsPerNode(t *testing.T) {
	e := newEngine(t)
	const nodes = 1000
	if _, err := e.Sys.Host.Run(func(tx *hostdb.Tx) error {
		for id := range nodes {
			if err := tx.CreateNodeWithID(model.NodeID(id), []string{"N"}, model.Properties{"a": model.IntValue(1), "b": model.IntValue(2)}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Sys.Aion.WaitSync(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		q   string
		max float64 // allocations per node
	}{
		{`MATCH (n) RETURN count(*)`, 5},
		{`USE GDB FOR SYSTEM_TIME AS OF 1 MATCH (n) RETURN count(*)`, 11}, // and the snapshot's
	} {
		mustQuery(t, e, c.q, nil) // fills the statement cache
		per := testing.AllocsPerRun(5, func() {
			if _, err := e.QueryContext(context.Background(), c.q, nil); err != nil {
				t.Fatal(err)
			}
		}) / nodes
		if per > c.max+0.1 {
			t.Errorf("%s: %.2f allocations per node, want at most %.0f", c.q, per, c.max)
		}
	}
}
