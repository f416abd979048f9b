package cypher

import (
	"testing"

	"aion/internal/model"
)

func TestUndirectedPattern(t *testing.T) {
	e := seed(t)
	// Undirected match finds the KNOWS edge from either endpoint.
	res := mustQuery(t, e, `MATCH (b {name: 'bob'})-[r:KNOWS]-(x) RETURN x.name ORDER BY x.name`, nil)
	if len(res.Rows) != 2 {
		t.Fatalf("undirected rows = %d", len(res.Rows))
	}
	if res.Rows[0][0].S.Str() != "alice" || res.Rows[1][0].S.Str() != "berlin" {
		t.Errorf("undirected neighbours: %v", res.Rows)
	}
}

func TestRelPropertyPattern(t *testing.T) {
	e := newEngine(t)
	mustQuery(t, e, `CREATE (a:N)-[:R {k: 1}]->(b:N)`, nil)
	mustQuery(t, e, `CREATE (c:N)-[:R {k: 2}]->(d:N)`, nil)
	res := mustQuery(t, e, `MATCH (a)-[r:R {k: 2}]->(b) RETURN id(a)`, nil)
	if len(res.Rows) != 1 || res.Rows[0][0].S.Int() != 2 {
		t.Errorf("rel prop filter: %v", res.Rows)
	}
}

func TestNodePropertyPatternWithParam(t *testing.T) {
	e := seed(t)
	res := mustQuery(t, e, `MATCH (n:Person {name: $who}) RETURN id(n)`,
		map[string]model.Value{"who": model.StringValue("bob")})
	if len(res.Rows) != 1 {
		t.Errorf("param in node pattern: %v", res.Rows)
	}
}

func TestOrderByDescAndMultiKey(t *testing.T) {
	e := newEngine(t)
	mustQuery(t, e, `CREATE (a:V {g: 1, v: 10}), (b:V {g: 1, v: 20}), (c:V {g: 2, v: 5})`, nil)
	res := mustQuery(t, e, `MATCH (n:V) RETURN n.g, n.v ORDER BY n.g DESC, n.v ASC`, nil)
	if res.Rows[0][0].S.Int() != 2 {
		t.Errorf("first group: %v", res.Rows[0])
	}
	if res.Rows[1][1].S.Int() != 10 || res.Rows[2][1].S.Int() != 20 {
		t.Errorf("secondary ordering: %v", res.Rows)
	}
}

func TestContainedInWindowSemantics(t *testing.T) {
	e := newEngine(t)
	mustQuery(t, e, `CREATE (a:W {name: 'early'})`, nil)  // ts 1
	mustQuery(t, e, `CREATE (b:W {name: 'middle'})`, nil) // ts 2
	mustQuery(t, e, `MATCH (a:W {name: 'early'}) DELETE a`, nil)
	mustQuery(t, e, `CREATE (c:W {name: 'late'})`, nil) // ts 4
	e.Sys.Aion.WaitSync()
	// CONTAINED IN (2, 3): window [2, 4) — "early" was live at ts 2,
	// "middle" created at 2, "late" not yet.
	res := mustQuery(t, e, `USE GDB FOR SYSTEM_TIME CONTAINED IN (2, 3) MATCH (n:W) RETURN count(*)`, nil)
	if res.Rows[0][0].S.Int() != 2 {
		t.Errorf("window count = %v", res.Rows[0][0])
	}
}

func TestTemporalPathProceduresViaCypher(t *testing.T) {
	e := newEngine(t)
	// Two airports and one flight: create, then delete the rel to give it
	// an arrival time.
	mustQuery(t, e, `CREATE (a:AP), (b:AP)`, nil)
	mustQuery(t, e, `MATCH (a), (b) WHERE id(a) = 0 AND id(b) = 1 CREATE (a)-[:F]->(b)`, nil) // dep ts 2
	mustQuery(t, e, `MATCH (a)-[r:F]->(b) DELETE r`, nil)                                     // arr ts 3
	e.Sys.Aion.WaitSync()
	res := mustQuery(t, e, `CALL aion.temporal.earliestArrival(0, 0, 1, 10)`, nil)
	arr := map[int64]int64{}
	for _, row := range res.Rows {
		arr[row[0].S.Int()] = row[1].S.Int()
	}
	if arr[1] != 3 {
		t.Errorf("arrival at 1 = %d, want 3", arr[1])
	}
	res = mustQuery(t, e, `CALL aion.temporal.latestDeparture(1, 10, 1, 10)`, nil)
	dep := map[int64]int64{}
	for _, row := range res.Rows {
		dep[row[0].S.Int()] = row[1].S.Int()
	}
	if dep[0] != 2 {
		t.Errorf("departure from 0 = %d, want 2", dep[0])
	}
}

func TestStringEscapesAndComments(t *testing.T) {
	e := newEngine(t)
	mustQuery(t, e, `CREATE (n:S {v: 'it\'s'}) // trailing comment`, nil)
	res := mustQuery(t, e, `MATCH (n:S) RETURN n.v`, nil)
	if res.Rows[0][0].S.Str() != "it's" {
		t.Errorf("escape: %v", res.Rows[0][0])
	}
}

func TestDoubleQuotedStrings(t *testing.T) {
	e := newEngine(t)
	mustQuery(t, e, `CREATE (n:S {v: "double"})`, nil)
	res := mustQuery(t, e, `MATCH (n:S) WHERE n.v = "double" RETURN count(*)`, nil)
	if res.Rows[0][0].S.Int() != 1 {
		t.Error("double-quoted strings")
	}
}

func TestArithmeticInReturn(t *testing.T) {
	e := newEngine(t)
	mustQuery(t, e, `CREATE (n:A {x: 3})`, nil)
	res := mustQuery(t, e, `MATCH (n:A) RETURN n.x + 4 AS sum, n.x + 0.5 AS f, 'v' + 'w' AS s`, nil)
	if res.Rows[0][0].S.Int() != 7 {
		t.Errorf("int add: %v", res.Rows[0][0])
	}
	if res.Rows[0][1].S.Float() != 3.5 {
		t.Errorf("float add: %v", res.Rows[0][1])
	}
	if res.Rows[0][2].S.Str() != "vw" {
		t.Errorf("string concat: %v", res.Rows[0][2])
	}
}

// A boolean is not a number: it adds 0 to a float, not the 4.9e-324 its
// payload word reads as float bits.
func TestBoolAddsNothingToAFloat(t *testing.T) {
	e := newEngine(t)
	mustQuery(t, e, `CREATE (n:B {w: true})`, nil)
	res := mustQuery(t, e, `MATCH (n:B) RETURN 0.0 + true, 0.0 + n.w`, nil)
	if got := res.Rows[0][0].S.Float(); got != 0 {
		t.Errorf("0.0 + true = %v, want 0", got)
	}
	if got := res.Rows[0][1].S.Float(); got != 0 {
		t.Errorf("0.0 + n.w = %v, want 0", got)
	}
}

func TestSharedVarJoinAcrossPatterns(t *testing.T) {
	e := newEngine(t)
	mustQuery(t, e, `CREATE (a:J)-[:X]->(b:J), (c:J)`, nil)
	mustQuery(t, e, `MATCH (b:J), (c:J) WHERE id(b) = 1 AND id(c) = 2 CREATE (b)-[:Y]->(c)`, nil)
	// The shared variable m joins the two patterns.
	res := mustQuery(t, e, `MATCH (a)-[:X]->(m), (m)-[:Y]->(c) RETURN id(a), id(m), id(c)`, nil)
	if len(res.Rows) != 1 {
		t.Fatalf("join rows = %d", len(res.Rows))
	}
	if res.Rows[0][1].S.Int() != 1 {
		t.Errorf("join binding: %v", res.Rows[0])
	}
}

func TestUnboundVariableErrors(t *testing.T) {
	e := seed(t)
	if _, err := e.Query(`MATCH (n) RETURN missing.prop`, nil); err == nil {
		t.Error("unbound property access must fail")
	}
	if _, err := e.Query(`MATCH (n) WHERE id(q) = 1 RETURN n`, nil); err == nil {
		t.Error("unbound id() must fail")
	}
	if _, err := e.Query(`MATCH (n) RETURN n.p LIMIT 2 `, nil); err != nil {
		t.Errorf("trailing space should parse: %v", err)
	}
}

func TestMissingParamError(t *testing.T) {
	e := seed(t)
	if _, err := e.Query(`MATCH (n) WHERE n.name = $nope RETURN n`, nil); err == nil {
		t.Error("missing parameter must fail")
	}
}

func TestIncrementalSSSPAndColoringProcedures(t *testing.T) {
	e := newEngine(t)
	mustQuery(t, e, `CREATE (a:G)-[:R {w: 2}]->(b:G)`, nil)
	mustQuery(t, e, `MATCH (b:G), (a:G) WHERE id(b) = 1 AND id(a) = 0 CREATE (b)-[:R {w: 3}]->(c:G)`, nil)
	e.Sys.Aion.WaitSync()
	maxTS := int64(e.Sys.Host.Clock())
	res := mustQuery(t, e, `CALL aion.incremental.sssp(0, 'w', 1, $end, 1)`,
		params(t, "end", maxTS))
	if len(res.Rows) != int(maxTS) {
		t.Fatalf("sssp series rows = %d", len(res.Rows))
	}
	last := res.Rows[len(res.Rows)-1]
	if last[1].S.Int() != 3 { // src + 2 reachable
		t.Errorf("reached = %v", last[1])
	}
	if last[2].S.Float() != 5 { // 2 + 3
		t.Errorf("maxDistance = %v", last[2])
	}
	res = mustQuery(t, e, `CALL aion.incremental.coloring(1, $end, 1)`,
		params(t, "end", maxTS))
	if len(res.Rows) != int(maxTS) {
		t.Fatalf("coloring series rows = %d", len(res.Rows))
	}
	if res.Rows[len(res.Rows)-1][1].S.Int() < 2 {
		t.Errorf("colors = %v", res.Rows[len(res.Rows)-1][1])
	}
}
