package cypher

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"aion/internal/model"
	"aion/internal/system"
	"aion/internal/testkit/refmodel"
)

func newEngine(t testing.TB) *Engine {
	t.Helper()
	sys, err := system.Open(system.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	return NewEngine(sys)
}

func mustQuery(t testing.TB, e *Engine, q string, params map[string]model.Value) *Result {
	t.Helper()
	res, err := e.QueryContext(context.Background(), q, params)
	if err != nil {
		t.Fatalf("query %q: %v", q, err)
	}
	return res
}

// seed builds a small social network and returns the engine. Timeline:
// commits 1..4 create alice+bob (1), carol (2), rels (3), alice update (4),
// rel deletion (5).
func seed(t testing.TB) *Engine {
	e := newEngine(t)
	mustQuery(t, e, `CREATE (a:Person {name: 'alice', age: 30})-[:KNOWS {since: 2020}]->(b:Person {name: 'bob'})`, nil)
	mustQuery(t, e, `CREATE (c:Person {name: 'carol'})`, nil)
	mustQuery(t, e, `MATCH (b:Person {name: 'bob'}) CREATE (b)-[:KNOWS]->(c2:City {name: 'berlin'})`, nil)
	mustQuery(t, e, `MATCH (a:Person {name: 'alice'}) SET a.age = 31`, nil)
	if err := e.Sys.Aion.WaitSync(); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"FOO",
		"MATCH (n) WHERE",
		"MATCH (n)",
		"USE GDB FOR SYSTEM_TIME MATCH (n) RETURN n",
		"MATCH (n RETURN n",
		"CALL missing.paren",
		"MATCH (n) RETURN n LIMIT x",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("expected parse error for %q", q)
		}
	}
	// An error names where the offending token starts: a string token at
	// its opening quote, here the 'x' at 43.
	q := "MATCH (n) WHERE n.k = 'abc' RETURN n LIMIT 'x'"
	if _, err := Parse(q); err == nil || !strings.Contains(err.Error(), "near position 43:") {
		t.Errorf("parse %q: %v, want an error near position 43", q, err)
	}
}

func TestParseTemporalForms(t *testing.T) {
	cases := map[string]TemporalKind{
		"USE GDB MATCH (n) RETURN n":                                            TemporalNone,
		"USE GDB FOR SYSTEM_TIME AS OF 5 MATCH (n) RETURN n":                    TemporalAsOf,
		"USE GDB FOR SYSTEM_TIME FROM 1 TO 9 MATCH (n) RETURN n":                TemporalFromTo,
		"USE GDB FOR SYSTEM_TIME BETWEEN 1 AND 9 MATCH (n) RETURN n":            TemporalBetween,
		"USE GDB FOR SYSTEM_TIME CONTAINED IN (1, 9) MATCH (n) RETURN n":        TemporalContainedIn,
		"use gdb for system_time as of $t match (n) where id(n) = $id return n": TemporalAsOf,
	}
	for q, kind := range cases {
		st, err := Parse(q)
		if err != nil {
			t.Errorf("parse %q: %v", q, err)
			continue
		}
		if st.Temporal.Kind != kind {
			t.Errorf("%q: kind = %v, want %v", q, st.Temporal.Kind, kind)
		}
	}
}

func TestCreateAndMatchLatest(t *testing.T) {
	e := seed(t)
	res := mustQuery(t, e, `MATCH (n:Person) RETURN n.name ORDER BY n.name`, nil)
	if len(res.Rows) != 3 {
		t.Fatalf("persons = %d", len(res.Rows))
	}
	if res.Rows[0][0].S.Str() != "alice" || res.Rows[2][0].S.Str() != "carol" {
		t.Errorf("order: %v", res.Rows)
	}
	// Relationship pattern.
	res = mustQuery(t, e, `MATCH (a:Person)-[r:KNOWS]->(b) RETURN a.name, b.name`, nil)
	if len(res.Rows) != 2 {
		t.Fatalf("knows edges = %d", len(res.Rows))
	}
	// Label filter on the target.
	res = mustQuery(t, e, `MATCH (a)-[:KNOWS]->(b:City) RETURN a.name`, nil)
	if len(res.Rows) != 1 || res.Rows[0][0].S.Str() != "bob" {
		t.Errorf("city edge: %v", res.Rows)
	}
}

func TestWhereAndParams(t *testing.T) {
	e := seed(t)
	res := mustQuery(t, e, `MATCH (n:Person) WHERE n.age >= 31 RETURN n.name`, nil)
	if len(res.Rows) != 1 || res.Rows[0][0].S.Str() != "alice" {
		t.Errorf("age filter: %v", res.Rows)
	}
	res = mustQuery(t, e, `MATCH (n) WHERE n.name = $who RETURN id(n)`,
		map[string]model.Value{"who": model.StringValue("carol")})
	if len(res.Rows) != 1 {
		t.Fatalf("param filter: %v", res.Rows)
	}
	res = mustQuery(t, e, `MATCH (n:Person) WHERE NOT n.name = 'alice' AND n.age <> 31 RETURN count(*)`, nil)
	if res.Rows[0][0].S.Int() != 2 {
		t.Errorf("count = %v", res.Rows[0][0])
	}
}

func TestCountAndLimit(t *testing.T) {
	e := seed(t)
	res := mustQuery(t, e, `MATCH (n) RETURN count(*) AS c`, nil)
	if res.Columns[0] != "c" || res.Rows[0][0].S.Int() != 4 {
		t.Errorf("count: %v %v", res.Columns, res.Rows)
	}
	res = mustQuery(t, e, `MATCH (n) RETURN id(n) ORDER BY id(n) LIMIT 2`, nil)
	if len(res.Rows) != 2 || res.Rows[0][0].S.Int() != 0 {
		t.Errorf("limit: %v", res.Rows)
	}
}

func TestTemporalAsOfHistoryLookup(t *testing.T) {
	e := seed(t)
	// Find alice's id.
	res := mustQuery(t, e, `MATCH (n {name: 'alice'}) RETURN id(n)`, nil)
	id := res.Rows[0][0].S

	// At commit 1 alice has age 30; at commit 4 age 31.
	res = mustQuery(t, e, `USE GDB FOR SYSTEM_TIME AS OF 1 MATCH (n) WHERE id(n) = $id RETURN n.age`,
		map[string]model.Value{"id": id})
	if len(res.Rows) != 1 || res.Rows[0][0].S.Int() != 30 {
		t.Errorf("as-of 1: %v", res.Rows)
	}
	res = mustQuery(t, e, `USE GDB FOR SYSTEM_TIME AS OF 4 MATCH (n) WHERE id(n) = $id RETURN n.age`,
		map[string]model.Value{"id": id})
	if len(res.Rows) != 1 || res.Rows[0][0].S.Int() != 31 {
		t.Errorf("as-of 4: %v", res.Rows)
	}
	// A timestamp parameter that arrives as a float (a JSON or bolt client
	// with one number type) names the same instant, not its IEEE bit pattern.
	res = mustQuery(t, e, `USE GDB FOR SYSTEM_TIME AS OF $ts MATCH (n) WHERE id(n) = $id RETURN n.age`,
		map[string]model.Value{"id": id, "ts": model.FloatValue(1)})
	if len(res.Rows) != 1 || res.Rows[0][0].S.Int() != 30 {
		t.Errorf("as-of 1.0: %v", res.Rows)
	}
}

func TestTemporalBetweenReturnsVersions(t *testing.T) {
	e := seed(t)
	res := mustQuery(t, e, `MATCH (n {name: 'alice'}) RETURN id(n)`, nil)
	id := res.Rows[0][0].S
	// Fig 1a: history lookup between t1 and t2 (exclusive).
	res = mustQuery(t, e, `USE GDB FOR SYSTEM_TIME BETWEEN 1 AND 100 MATCH (n:Person) WHERE id(n) = $id RETURN n.age`,
		map[string]model.Value{"id": id})
	if len(res.Rows) != 2 {
		t.Fatalf("versions = %d, want 2", len(res.Rows))
	}
	ages := map[int64]bool{res.Rows[0][0].S.Int(): true, res.Rows[1][0].S.Int(): true}
	if !ages[30] || !ages[31] {
		t.Errorf("version ages: %v", ages)
	}
}

func TestTemporalSnapshotScan(t *testing.T) {
	e := seed(t)
	// At commit 1 only alice and bob exist.
	res := mustQuery(t, e, `USE GDB FOR SYSTEM_TIME AS OF 1 MATCH (n) RETURN count(*)`, nil)
	if res.Rows[0][0].S.Int() != 2 {
		t.Errorf("as-of 1 count = %v", res.Rows[0][0])
	}
	res = mustQuery(t, e, `USE GDB FOR SYSTEM_TIME AS OF 3 MATCH (n) RETURN count(*)`, nil)
	if res.Rows[0][0].S.Int() != 4 {
		t.Errorf("as-of 3 count = %v", res.Rows[0][0])
	}
}

func TestVariableHopExpansion(t *testing.T) {
	e := seed(t)
	res := mustQuery(t, e, `MATCH (a {name: 'alice'}) RETURN id(a)`, nil)
	id := res.Rows[0][0].S
	// Fig 1b: neighbourhood lookup at t1 (alice -> bob -> berlin at ts 3).
	res = mustQuery(t, e, `USE GDB FOR SYSTEM_TIME AS OF 3 MATCH (n)-[*2]->(m) WHERE id(n) = $id RETURN m`,
		map[string]model.Value{"id": id})
	if len(res.Rows) != 1 || res.Rows[0][0].Node == nil {
		t.Fatalf("2-hop: %v", res.Rows)
	}
	if res.Rows[0][0].Node.Props["name"].Str() != "berlin" {
		t.Errorf("2-hop target: %v", res.Rows[0][0])
	}
	// Range 1..2 returns bob and berlin.
	res = mustQuery(t, e, `USE GDB FOR SYSTEM_TIME AS OF 3 MATCH (n)-[*1..2]->(m) WHERE id(n) = $id RETURN m`,
		map[string]model.Value{"id": id})
	if len(res.Rows) != 2 {
		t.Errorf("1..2-hop rows = %d", len(res.Rows))
	}
}

// TestVariableHopsDedupPerHop: a var-hop MATCH expands as Alg 1 does, one
// dedup per hop, so a node two hops out is returned even when it was the
// anchor or a node of the first hop. Over a→b, b→a and b→c the latest graph
// and the untyped and typed AS OF patterns (on the LineageStore's View) all
// answer the model's Alg 1 at that ts: b, then a and c.
func TestVariableHopsDedupPerHop(t *testing.T) {
	e := newEngine(t)
	m := &refmodel.Model{}
	e.Sys.Host.OnCommit(func(_ model.Timestamp, us []model.Update) { m.Apply(us...) })
	mustQuery(t, e, `CREATE (a {name: 'a'})-[:R]->(b {name: 'b'})`, nil)
	mustQuery(t, e, `MATCH (a), (b) WHERE id(a) = 0 AND id(b) = 1 CREATE (b)-[:R]->(a)`, nil)
	mustQuery(t, e, `MATCH (b) WHERE id(b) = 1 CREATE (b)-[:R]->(c {name: 'c'})`, nil)
	ts := e.Sys.Host.Clock()
	var want []string
	for _, hop := range m.Expand(0, model.Outgoing, 2, ts) {
		for _, n := range hop {
			want = append(want, n.Props["name"].Str())
		}
	}
	if !slices.Equal(want, []string{"b", "a", "c"}) {
		t.Fatalf("the model's Alg 1 from a at %d = %v, want [b a c]", ts, want)
	}
	params := map[string]model.Value{"ts": model.IntValue(int64(ts))}
	for _, q := range []string{
		`MATCH (x)-[*1..2]->(y) WHERE id(x) = 0 RETURN y.name`,
		`USE GDB FOR SYSTEM_TIME AS OF $ts MATCH (x)-[*1..2]->(y) WHERE id(x) = 0 RETURN y.name`,
		`USE GDB FOR SYSTEM_TIME AS OF $ts MATCH (x)-[:R*1..2]->(y) WHERE id(x) = 0 RETURN y.name`,
	} {
		var got []string
		for _, row := range mustQuery(t, e, q, params).Rows {
			got = append(got, row[0].S.Str())
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s = %v, the model's Alg 1 says %v", q, got, want)
		}
	}
}

func TestSetAndDelete(t *testing.T) {
	e := seed(t)
	res := mustQuery(t, e, `MATCH (n {name: 'carol'}) SET n.age = 25`, nil)
	if res.PropsSet != 1 {
		t.Errorf("props set = %d", res.PropsSet)
	}
	res = mustQuery(t, e, `MATCH (n {name: 'carol'}) RETURN n.age`, nil)
	if res.Rows[0][0].S.Int() != 25 {
		t.Error("SET not visible")
	}
	// Delete a relationship then the node.
	res = mustQuery(t, e, `MATCH (a {name: 'alice'})-[r:KNOWS]->(b) DELETE r`, nil)
	if res.RelsDeleted != 1 {
		t.Errorf("rels deleted = %d", res.RelsDeleted)
	}
	res = mustQuery(t, e, `MATCH (n {name: 'alice'}) DELETE n`, nil)
	if res.NodesDeleted != 1 {
		t.Errorf("nodes deleted = %d", res.NodesDeleted)
	}
	res = mustQuery(t, e, `MATCH (n:Person) RETURN count(*)`, nil)
	if res.Rows[0][0].S.Int() != 2 {
		t.Errorf("persons after delete = %v", res.Rows[0][0])
	}
	// But history still knows alice (time travel).
	e.Sys.Aion.WaitSync()
	res = mustQuery(t, e, `USE GDB FOR SYSTEM_TIME AS OF 4 MATCH (n:Person) RETURN count(*)`, nil)
	if res.Rows[0][0].S.Int() != 3 {
		t.Errorf("historical persons = %v", res.Rows[0][0])
	}
}

func TestDetachDelete(t *testing.T) {
	e := seed(t)
	res := mustQuery(t, e, `MATCH (n {name: 'bob'}) DETACH DELETE n`, nil)
	if res.NodesDeleted != 1 || res.RelsDeleted != 2 {
		t.Errorf("detach delete: %d nodes %d rels", res.NodesDeleted, res.RelsDeleted)
	}
}

func TestWriteOnHistoricalVersionRejected(t *testing.T) {
	e := seed(t)
	_, err := e.QueryContext(context.Background(), `USE GDB FOR SYSTEM_TIME AS OF 1 MATCH (n) SET n.x = 1`, nil)
	if err == nil || !strings.Contains(err.Error(), "historical") {
		t.Errorf("historical write must be rejected, got %v", err)
	}
}

func TestApplicationTimeFilter(t *testing.T) {
	e := newEngine(t)
	// Fig 1c: bitemporal lookup. Store app times as properties.
	mustQuery(t, e, `CREATE (n:Event {name: 'a', __app_start: 5, __app_end: 10})`, nil)
	mustQuery(t, e, `CREATE (n:Event {name: 'b', __app_start: 50, __app_end: 60})`, nil)
	e.Sys.Aion.WaitSync()
	res := mustQuery(t, e,
		`USE GDB FOR SYSTEM_TIME AS OF 2 MATCH (n:Event) WHERE APPLICATION_TIME CONTAINED IN (1, 20) RETURN n.name`, nil)
	if len(res.Rows) != 1 || res.Rows[0][0].S.Str() != "a" {
		t.Errorf("bitemporal filter: %v", res.Rows)
	}
}

// TestBitemporalFilter: APPLICATION_TIME CONTAINED IN (a, b) keeps a row
// whose application-time interval lies in the closed range [a, b], and one
// without application time, which falls back to system time. A bound of
// MaxInt64 is an open end, not a wrap to MinInt64.
func TestBitemporalFilter(t *testing.T) {
	e := newEngine(t)
	mustQuery(t, e, `CREATE (n:Event {name: 'in', __app_start: 5, __app_end: 10})`, nil)
	mustQuery(t, e, `CREATE (n:Event {name: 'early', __app_start: 1, __app_end: 3})`, nil)
	mustQuery(t, e, `CREATE (n:Event {name: 'late', __app_start: 8, __app_end: 20})`, nil)
	mustQuery(t, e, `CREATE (n:Event {name: 'untimed'})`, nil)
	e.Sys.Aion.WaitSync()
	for _, tc := range []struct {
		window string
		want   []string
	}{
		{"(4, 12)", []string{"in", "untimed"}},
		{"(4, 9223372036854775807)", []string{"in", "late", "untimed"}},
	} {
		res := mustQuery(t, e, `MATCH (n:Event) WHERE APPLICATION_TIME CONTAINED IN `+tc.window+` RETURN n.name ORDER BY n.name`, nil)
		var got []string
		for _, row := range res.Rows {
			got = append(got, row[0].S.Str())
		}
		if strings.Join(got, ",") != strings.Join(tc.want, ",") {
			t.Errorf("CONTAINED IN %s kept %v, want %v", tc.window, got, tc.want)
		}
	}
}

// TestIncrementalCallStopsAtItsDeadline: a step-1 series to MaxInt64 is
// cut by its query's deadline, and never wraps into negative time.
func TestIncrementalCallStopsAtItsDeadline(t *testing.T) {
	e := seed(t)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	begin := time.Now()
	_, err := e.QueryContext(ctx, `CALL aion.incremental.avg('age', 0, 9223372036854775807, 1)`, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("CALL to MaxInt64 returned %v, want the deadline", err)
	}
	if d := time.Since(begin); d > time.Second {
		t.Fatalf("CALL took %v to notice its 100 ms deadline", d)
	}
	res := mustQuery(t, e, `CALL aion.incremental.avg('age', 1, 9223372036854775807, 4611686018427387904)`, nil)
	if len(res.Rows) != 2 || res.Rows[1][0].S.Int() != 1+1<<62 {
		t.Fatalf("a series of step 1<<62 from 1 to MaxInt64: %v, want rows at 1 and 1+1<<62", res.Rows)
	}
}

func TestProcedures(t *testing.T) {
	ctx := context.Background()
	e := seed(t)
	res := mustQuery(t, e, `CALL aion.diff(1, 100)`, nil)
	if len(res.Rows) < 5 {
		t.Errorf("diff rows = %d", len(res.Rows))
	}
	res = mustQuery(t, e, `CALL aion.graph(3)`, nil)
	if res.Rows[0][0].S.Int() != 4 {
		t.Errorf("graph nodes = %v", res.Rows[0][0])
	}
	res = mustQuery(t, e, `CALL aion.node(0, 0, 100)`, nil)
	if len(res.Rows) != 2 { // alice has two versions
		t.Errorf("node versions = %d", len(res.Rows))
	}
	res = mustQuery(t, e, `CALL aion.expand(0, 'out', 2, 3) YIELD hop`, nil)
	if len(res.Columns) != 1 || res.Columns[0] != "hop" {
		t.Errorf("yield: %v", res.Columns)
	}
	if len(res.Rows) != 2 {
		t.Errorf("expand rows = %d", len(res.Rows))
	}
	if _, err := e.QueryContext(ctx, `CALL nope.nope()`, nil); err == nil {
		t.Error("unknown procedure must fail")
	}
	if _, err := e.QueryContext(ctx, `CALL aion.expand(0, 'out', 2, 3) YIELD nothere`, nil); err == nil {
		t.Error("unknown yield column must fail")
	}
}

// TestDirectionArguments: aion.relationships and aion.expand read 'out', 'in'
// and 'both' (bob has one outgoing and one incoming relationship), and fail on
// any other direction, naming it, instead of reading outgoing ones.
func TestDirectionArguments(t *testing.T) {
	e := seed(t)
	for _, c := range []struct {
		dir  string
		rows int // -1: the call fails
	}{
		{"'out'", 1}, {"'in'", 1}, {"'both'", 2}, {"'OUT'", 1}, {"'incoming'", 1}, {"'BOTH'", 2},
		{"'inn'", -1}, {"'Out'", -1}, {"''", -1}, {"3", -1}, {"null", -1},
	} {
		for _, q := range []string{"CALL aion.relationships(1, %s, 0, 9)", "CALL aion.expand(1, %s, 1, 9)"} {
			q = fmt.Sprintf(q, c.dir)
			res, err := e.QueryContext(context.Background(), q, nil)
			switch {
			case c.rows < 0 && (err == nil || !strings.Contains(err.Error(), "direction "+strings.ReplaceAll(c.dir, "'", `"`))):
				t.Errorf("%s: %v, want an error naming the direction", q, err)
			case c.rows >= 0 && err != nil:
				t.Errorf("%s: %v", q, err)
			case c.rows >= 0 && len(res.Rows) != c.rows:
				t.Errorf("%s: %d rows, want %d", q, len(res.Rows), c.rows)
			}
		}
	}
}

// TestGraphAheadOfTheLogIsNotCached: aion.graph at a timestamp past the
// log's end answers with the latest graph but caches nothing there, so a
// read at that timestamp after two more commits sees them; at the log's end
// the graph is complete and cached.
func TestGraphAheadOfTheLogIsNotCached(t *testing.T) {
	e := newEngine(t)
	mustQuery(t, e, `CREATE (n:P)`, nil)
	if n := mustQuery(t, e, `CALL aion.graph(1000)`, nil).Rows[0][0].S.Int(); n != 1 {
		t.Fatalf("aion.graph(1000) after one CREATE: %d nodes, want 1", n)
	}
	mustQuery(t, e, `CREATE (a:P), (b:P)`, nil)
	for _, q := range []string{`USE GDB FOR SYSTEM_TIME AS OF 1000 MATCH (n:P) RETURN count(*)`, `CALL aion.graph(1000)`} {
		if n := mustQuery(t, e, q, nil).Rows[0][0].S.Int(); n != 3 {
			t.Errorf("%s after three nodes were created: %d, want 3", q, n)
		}
	}
	last := e.Sys.Aion.TimeStore().LatestTimestamp()
	mustQuery(t, e, fmt.Sprintf(`CALL aion.graph(%d)`, last), nil)
	if gs := e.Sys.Aion.TimeStore().GraphStore(); gs.Holds(1000) || !gs.Holds(last) {
		t.Errorf("cached at 1000: %v, at the log's end %d: %v; want false, true", gs.Holds(1000), last, gs.Holds(last))
	}
}

// TestAsOfMaxInt64IsTheLatestGraph: AS OF MaxInt64 reads the latest graph on
// each shape the TimeStore's snapshot serves — a count, aion.graph, an
// expand and an anchored one-hop pattern — where the snapshot's replay bound,
// ts+1, once wrapped and replayed no log at all. Each shape runs on a fresh
// store: a graph another cached would hide the wrap.
func TestAsOfMaxInt64IsTheLatestGraph(t *testing.T) {
	show := func(rows [][]Val) string {
		var b strings.Builder
		for _, row := range rows {
			for _, v := range row {
				switch {
				case v.Node != nil:
					fmt.Fprintf(&b, "(n%d %v) ", v.Node.ID, v.Node.Props)
				case v.Rel != nil:
					fmt.Fprintf(&b, "[r%d %v] ", v.Rel.ID, v.Rel.Props)
				default:
					fmt.Fprintf(&b, "%v ", v.S)
				}
			}
			b.WriteString("\n")
		}
		return b.String()
	}
	for _, q := range []string{
		`USE GDB FOR SYSTEM_TIME AS OF $ts MATCH (n) RETURN count(*)`,
		`CALL aion.graph($ts)`,
		`CALL aion.expand(0, 'out', 2, $ts)`,
		`USE GDB FOR SYSTEM_TIME AS OF $ts MATCH (a)-[r]->(b) WHERE id(a) = 0 RETURN r, b`,
	} {
		e := seed(t)
		latest := e.Sys.Host.Clock()
		_, time0 := e.Sys.Aion.PlannerDecisions()
		got := show(mustQuery(t, e, q, map[string]model.Value{"ts": model.IntValue(math.MaxInt64)}).Rows)
		_, time1 := e.Sys.Aion.PlannerDecisions()
		want := show(mustQuery(t, e, q, map[string]model.Value{"ts": model.IntValue(int64(latest))}).Rows)
		if got != want || strings.Count(want, "\n") == 0 {
			t.Errorf("%s at MaxInt64:\n%s\nat the latest timestamp %d:\n%s", q, got, latest, want)
		}
		if strings.Contains(q, "expand") && time1 == time0 {
			t.Errorf("%s was not served by the TimeStore", q)
		}
	}
}

func TestIncrementalProcedures(t *testing.T) {
	e := newEngine(t)
	mustQuery(t, e, `CREATE (a:N)-[:R {w: 10}]->(b:N)`, nil)
	mustQuery(t, e, `MATCH (a:N), (b:N) RETURN count(*)`, nil) // no-op warm
	mustQuery(t, e, `CREATE (c:N)-[:R {w: 20}]->(d:N)`, nil)
	mustQuery(t, e, `CREATE (x:N)-[:R {w: 30}]->(y:N)`, nil)
	e.Sys.Aion.WaitSync()
	res := mustQuery(t, e, `CALL aion.incremental.avg('w', 1, 3, 1)`, nil)
	if len(res.Rows) != 3 {
		t.Fatalf("avg series rows = %d", len(res.Rows))
	}
	last := res.Rows[len(res.Rows)-1]
	if last[1].S.Float() != 20 {
		t.Errorf("final avg = %v", last[1])
	}
	res = mustQuery(t, e, `CALL aion.incremental.bfs(0, 1, 3, 1)`, nil)
	if len(res.Rows) != 3 {
		t.Errorf("bfs series rows = %d", len(res.Rows))
	}
	res = mustQuery(t, e, `CALL aion.incremental.pagerank(1, 3, 1)`, nil)
	if len(res.Rows) != 3 {
		t.Errorf("pagerank series rows = %d", len(res.Rows))
	}
	// A series that ends before it starts is empty, as model.Steps has it.
	for _, q := range []string{
		`CALL aion.incremental.avg('w', 2, 1, 1)`,
		`CALL aion.incremental.bfs(0, 2, 1, 1)`,
		`CALL aion.incremental.sssp(0, 'w', 2, 1, 1)`,
		`CALL aion.incremental.pagerank(2, 1, 1)`,
		`CALL aion.incremental.coloring(2, 1, 1)`,
	} {
		if res := mustQuery(t, e, q, nil); len(res.Rows) != 0 {
			t.Errorf("%s: %v, want no row", q, res.Rows)
		}
	}
}

func TestMultiPatternComma(t *testing.T) {
	e := newEngine(t)
	res := mustQuery(t, e, `CREATE (a:X {k: 1}), (b:Y {k: 2})`, nil)
	if res.NodesCreated != 2 {
		t.Errorf("created = %d", res.NodesCreated)
	}
}

func TestCreateReturn(t *testing.T) {
	e := newEngine(t)
	res := mustQuery(t, e, `CREATE (a:Z {k: 7}) RETURN id(a), a.k`, nil)
	if len(res.Rows) != 1 || res.Rows[0][1].S.Int() != 7 {
		t.Errorf("create return: %v", res.Rows)
	}
}

func TestIncomingDirectionPattern(t *testing.T) {
	e := seed(t)
	res := mustQuery(t, e, `MATCH (b {name: 'bob'})<-[r:KNOWS]-(a) RETURN a.name`, nil)
	if len(res.Rows) != 1 || res.Rows[0][0].S.Str() != "alice" {
		t.Errorf("incoming: %v", res.Rows)
	}
}

func TestThreeNodeChain(t *testing.T) {
	e := seed(t)
	res := mustQuery(t, e, `MATCH (a)-[:KNOWS]->(b)-[:KNOWS]->(c) RETURN a.name, c.name`, nil)
	if len(res.Rows) != 1 || res.Rows[0][0].S.Str() != "alice" || res.Rows[0][1].S.Str() != "berlin" {
		t.Errorf("chain: %v", res.Rows)
	}
}
