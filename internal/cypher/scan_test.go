package cypher

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"aion/internal/hostdb"
	"aion/internal/model"
)

// scanEngine is an engine whose graph is nodes nodes labelled N, each with
// a = 1 and b = 2, created at commit 1.
func scanEngine(t *testing.T, nodes int) *Engine {
	e := newEngine(t)
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
	return e
}

// allocs is what one run of q allocates, its text already parsed.
func allocs(t *testing.T, e *Engine, q string) float64 {
	mustQuery(t, e, q, nil) // fills the statement cache
	return testing.AllocsPerRun(5, func() {
		if _, err := e.QueryContext(context.Background(), q, nil); err != nil {
			t.Fatal(err)
		}
	})
}

// A scan pays nothing per node for a count: the matcher binds each node it is
// lent in its one environment, and a COUNT keeps no row. RETURN n pays for the
// copy of each node it keeps (the node, and its property map: three). An AS OF
// count pays for the snapshot it builds and nothing more. Anchored statements
// read nodes of their own, which they return as they are, and a LIMIT stops a
// scan once it holds its rows.
func TestScanAllocationsPerNode(t *testing.T) {
	const nodes = 1000
	e := scanEngine(t, nodes)
	for _, c := range []struct {
		q   string
		max float64 // allocations per node
	}{
		{`MATCH (n) RETURN count(*)`, 0.1},
		{`MATCH (n:N) RETURN count(n)`, 0.1},
		{`MATCH (n) WHERE n.a = 1 RETURN count(*)`, 0.1},
		{`MATCH (n) RETURN n`, 3.1},
	} {
		if per := allocs(t, e, c.q) / nodes; per > c.max {
			t.Errorf("%s: %.2f allocations per node, want at most %.1f", c.q, per, c.max)
		}
	}
	asOf := allocs(t, e, `USE GDB FOR SYSTEM_TIME AS OF 1 MATCH (n) RETURN count(*)`)
	snapshot := testing.AllocsPerRun(5, func() {
		if _, err := e.Sys.Aion.GraphAtContext(context.Background(), 1); err != nil {
			t.Fatal(err)
		}
	})
	if per := (asOf - snapshot) / nodes; per > 0.1 {
		t.Errorf("AS OF count: %.2f allocations per node beyond the snapshot's %.2f, want at most 0.1", per, snapshot/nodes)
	}
	for _, c := range []struct {
		q   string
		max float64
	}{
		{`MATCH (n) WHERE id(n) = 7 RETURN n`, 10},
		{`MATCH (n) RETURN n LIMIT 1`, 30},
		{`USE GDB FOR SYSTEM_TIME AS OF 1 MATCH (n) WHERE id(n) = 7 RETURN n`, 14},
	} {
		if n := allocs(t, e, c.q); n > c.max {
			t.Errorf("%s: %.0f allocations, want at most %.0f", c.q, n, c.max)
		}
	}
}

// A node a scan lends is refilled for the next record, so what a statement
// keeps of it is a copy: every pair of a cartesian product has its own
// properties, a returned node survives the next scan, writing to it reaches no
// later read, and a SET over a product sets every node once.
func TestLentNodesAreKeptAsCopies(t *testing.T) {
	e := newEngine(t)
	mustQuery(t, e, `CREATE (:P {v: 0}), (:P {v: 1}), (:P {v: 2})`, nil)
	v := func(val Val) int64 { return val.Node.Props["v"].Int() }
	var pairs []string
	for _, row := range mustQuery(t, e, `MATCH (a), (b) RETURN a, b`, nil).Rows {
		if row[0].Node.ID == row[1].Node.ID && v(row[0]) != v(row[1]) {
			t.Errorf("node %d returned twice with properties %v and %v", row[0].Node.ID, row[0].Node.Props, row[1].Node.Props)
		}
		pairs = append(pairs, fmt.Sprintf("%d%d", v(row[0]), v(row[1])))
	}
	if slices.Sort(pairs); !slices.Equal(pairs, []string{"00", "01", "02", "10", "11", "12", "20", "21", "22"}) {
		t.Errorf("MATCH (a), (b) returned the pairs %v, want every pair of 0, 1 and 2", pairs)
	}

	kept := mustQuery(t, e, `MATCH (n) RETURN n`, nil).Rows
	mustQuery(t, e, `MATCH (n) RETURN count(*)`, nil)
	for i, row := range kept {
		if v(row[0]) != int64(i) {
			t.Errorf("row %d's node reads v = %v after another scan", i, row[0].Node.Props)
		}
		row[0].Node.Props["v"] = model.IntValue(-1)
	}
	for i, row := range mustQuery(t, e, `MATCH (n) RETURN n`, nil).Rows {
		if v(row[0]) != int64(i) {
			t.Errorf("a write to a returned node reached a later read: %v", row[0].Node.Props)
		}
	}

	if res := mustQuery(t, e, `MATCH (a), (b) SET b.x = a.v`, nil); res.PropsSet != 3 {
		t.Errorf("MATCH (a), (b) SET b.x set %d properties, want 3", res.PropsSet)
	}
	for _, row := range mustQuery(t, e, `MATCH (n) RETURN n.x`, nil).Rows {
		if row[0].S.Kind() != model.KindInt || row[0].S.Int() != 0 {
			t.Errorf("n.x = %v after the SET, want 0, the first a's v", row[0].S)
		}
	}
}

// A LIMIT without ORDER BY or COUNT stops the match once RETURN holds its
// rows, and those rows are the first rows of the statement without it, on
// every plan. ORDER BY … LIMIT still sorts every row, and a count still
// counts every row.
func TestLimitStopsTheMatch(t *testing.T) {
	e := scanEngine(t, 50)
	ids := func(q string) []int64 {
		var out []int64
		for _, row := range mustQuery(t, e, q, nil).Rows {
			for _, c := range row {
				out = append(out, int64(c.Node.ID))
			}
		}
		return out
	}
	for _, use := range []string{"", "USE GDB FOR SYSTEM_TIME AS OF 1 ", "USE GDB FOR SYSTEM_TIME FROM 1 TO 9 "} {
		for _, c := range []struct {
			match string
			limit int
			width int
		}{{"MATCH (n) RETURN n", 5, 1}, {"MATCH (a), (b) RETURN a, b", 7, 2}, {"MATCH (n) WHERE id(n) = 3 RETURN n", 5, 1}} {
			all := ids(use + c.match)
			want := all[:min(len(all), c.limit*c.width)]
			if got := ids(fmt.Sprintf("%s%s LIMIT %d", use, c.match, c.limit)); !slices.Equal(got, want) {
				t.Errorf("%s%s LIMIT %d: %v, want the first rows %v", use, c.match, c.limit, got, want)
			}
		}
	}
	if got := ids(`MATCH (n) RETURN n ORDER BY id(n) DESC LIMIT 3`); !slices.Equal(got, []int64{49, 48, 47}) {
		t.Errorf("ORDER BY id(n) DESC LIMIT 3: %v, want [49 48 47]", got)
	}
	if rows := mustQuery(t, e, `MATCH (n) RETURN count(*) LIMIT 1`, nil).Rows; rows[0][0].S.Int() != 50 {
		t.Errorf("count(*) LIMIT 1 = %v, want 50", rows[0][0].S)
	}
}
