package cypher

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"aion/internal/aion"
	"aion/internal/model"
)

// anchoredShapes are the anchored AS OF patterns the planner may serve from
// the LineageStore's view: a single node; one hop, untyped and typed, in each
// direction; a chain; var-hops, untyped and typed; a comma join; and label and
// property filters on the anchor and on the relationship.
var anchoredShapes = []string{
	`MATCH (a) WHERE id(a) = $id RETURN a`,
	`MATCH (a:L1) WHERE id(a) = $id RETURN a`,
	`MATCH (a)-[r]->(b) WHERE id(a) = $id RETURN r`,
	`MATCH (a)<-[r]-(b) WHERE id(a) = $id RETURN r`,
	`MATCH (a)-[r]-(b) WHERE id(a) = $id RETURN r`,
	`MATCH (a)-[r:R]->(b) WHERE id(a) = $id RETURN r`,
	`MATCH (a)<-[r:R]-(b) WHERE id(a) = $id RETURN r`,
	`MATCH (a)-[r:R]-(b) WHERE id(a) = $id RETURN r`,
	`MATCH (a)-[r:Q]->(b) WHERE id(a) = $id RETURN r`,
	`MATCH (a)-[r]->(b)-[s]->(c) WHERE id(a) = $id RETURN c`,
	`MATCH (a)-[*1..3]->(b) WHERE id(a) = $id RETURN b`,
	`MATCH (a)-[:R*1..3]-(b) WHERE id(a) = $id RETURN b`,
	`MATCH (a)-[r]->(b), (b)<-[s]-(c) WHERE id(a) = $id RETURN c`,
	`MATCH (a), (b) WHERE id(a) = $id AND id(b) = 0 RETURN b`,
	`MATCH (a:L0)-[r]->(b:L) WHERE id(a) = $id RETURN b`,
	`MATCH (a)-[r]-(b) WHERE id(a) = $id AND r.n > 300 RETURN r`,
	`MATCH (a)-[r {n: 5}]->(b) WHERE id(a) = $id RETURN b`,
	`MATCH (n:City)-[*1..1]->(m) WHERE id(n) = $id RETURN m`,
	`MATCH (n)-[*1..1 {since: 1999}]->(m) WHERE id(n) = $id RETURN m`,
	`MATCH (n)-[*1..1 {since: 2020}]->(m) WHERE id(n) = $id RETURN m`,
}

// viewRows matches m with id anchored on the LineageStore's view at ts and on
// snap, the TimeStore's snapshot at ts, and returns both row sets in a
// canonical form.
func viewRows(t *testing.T, e *Engine, m *MatchStmt, id int64, ts model.Timestamp, snap model.Graph) (view, snapshot []string) {
	t.Helper()
	ctx := &execCtx{e: e, c: context.Background(), params: map[string]model.Value{"id": model.IntValue(id)}}
	g := e.Sys.Aion.View(ctx.c, ts)
	var onView, onSnap kept
	if err := ctx.matchOnGraph(g, m, &onView); err != nil {
		t.Fatalf("at %d on the view: %v", ts, err)
	}
	if err := ctx.matchOnGraph(snap, m, &onSnap); err != nil {
		t.Fatalf("at %d on the snapshot: %v", ts, err)
	}
	return canonical(onView), canonical(onSnap)
}

// canonical renders each row's bindings, sorted by name, and sorts the rows:
// two multisets of rows are equal when their canonical forms are. An
// entity's Valid.Start is left out: the view reports its version's start,
// as every LineageStore read does, and a snapshot its creation time.
func canonical(rows []bindings) []string {
	out := make([]string, len(rows))
	for i, env := range rows {
		names := make([]string, 0, len(env))
		for name := range env {
			names = append(names, name)
		}
		sort.Strings(names)
		var b strings.Builder
		for _, name := range names {
			switch v := env[name]; {
			case v.Node != nil:
				fmt.Fprintf(&b, "%s=(n%d %v %v ..%d) ", name, v.Node.ID, sortedLabels(v.Node.Labels), v.Node.Props, v.Node.Valid.End)
			case v.Rel != nil:
				r := v.Rel
				fmt.Fprintf(&b, "%s=[r%d %d->%d:%s %v ..%d] ", name, r.ID, r.Src, r.Tgt, r.Label, r.Props, r.Valid.End)
			default:
				fmt.Fprintf(&b, "%s=%v ", name, v.S)
			}
		}
		out[i] = b.String()
	}
	slices.Sort(out)
	return out
}

// TestViewMatchesTheSnapshot: every anchored AS OF shape returns the same
// rows on the LineageStore's view as on the TimeStore's snapshot, from every
// node of two seeded histories at every commit timestamp, and on the social
// graph, whose Person anchor, KNOWS {since: 2020} relationship and update at
// 4 hold the three cases the var-hop shortcut got wrong: a label on the
// anchor, a property map on a var-hop relationship, and the anchor's
// Valid.End. The view's Rel answers every relationship id as the snapshot
// does, Valid.Start aside (as in canonical): ids not yet created, live,
// deleted and created again.
func TestViewMatchesTheSnapshot(t *testing.T) {
	e, again := newEngine(t), newEngine(t)
	commitHistory(t, e, 5, 30)
	commitHistory(t, again, 1, 30) // seed 5 creates no relationship id twice
	social := seed(t)
	var absent, deleted, recreated int // Rel reads of ids in each state
	for _, e := range []*Engine{e, again, social} {
		last := e.Sys.Host.Clock()
		diff, err := e.Sys.Aion.GetDiffContext(context.Background(), 0, last+1)
		if err != nil {
			t.Fatal(err)
		}
		maxRel := model.RelID(0)
		for _, u := range diff {
			maxRel = max(maxRel, u.RelID)
		}
		born, died := map[model.RelID]bool{}, map[model.RelID]bool{}
		for ts := model.Timestamp(0); ts <= last+1; ts++ {
			snap, err := e.Sys.Aion.GraphAtContext(context.Background(), ts)
			if err != nil {
				t.Fatal(err)
			}
			view := e.Sys.Aion.View(context.Background(), ts)
			for id := model.RelID(0); id <= maxRel+1; id++ {
				got, want := view.Rel(id), snap.Rel(id)
				if (got == nil) != (want == nil) || got != nil && (got.ID != want.ID || got.Src != want.Src || got.Tgt != want.Tgt ||
					got.Label != want.Label || !got.Props.Equal(want.Props) || got.Valid.End != want.Valid.End) {
					t.Fatalf("Rel(%d) at %d: on the view %+v, on the snapshot %+v", id, ts, got, want)
				}
				switch {
				case want == nil && died[id]:
					deleted++
				case want == nil:
					absent++
				case died[id]:
					recreated++
				}
				died[id] = want == nil && (born[id] || died[id])
				born[id] = born[id] || want != nil
			}
			if err := aion.ReadErr(view); err != nil {
				t.Fatalf("the view at %d: %v", ts, err)
			}
			for id := int64(0); id <= int64(snap.MaxNodeID()); id++ {
				for _, q := range anchoredShapes {
					st, err := e.Prepare(q)
					if err != nil {
						t.Fatal(err)
					}
					if view, snap := viewRows(t, e, st.Match, id, ts, snap); !slices.Equal(view, snap) {
						t.Fatalf("%s with id %d at %d:\non the view     %q\non the snapshot %q", q, id, ts, view, snap)
					}
				}
			}
		}
	}
	if absent == 0 || deleted == 0 || recreated == 0 {
		t.Errorf("Rel read %d ids not yet created, %d deleted and %d created again; want each case", absent, deleted, recreated)
	}
	alice := map[string]model.Value{"id": model.IntValue(0)}
	for q, want := range map[string]int{
		`USE GDB FOR SYSTEM_TIME AS OF 3 MATCH (n:City)-[*1..1]->(m) WHERE id(n) = $id RETURN m`:                 0,
		`USE GDB FOR SYSTEM_TIME AS OF 3 MATCH (n)-[*1..1 {since: 1999}]->(m) WHERE id(n) = $id RETURN m`:        0,
		`USE GDB FOR SYSTEM_TIME AS OF 3 MATCH (n:Person)-[*1..1 {since: 2020}]->(m) WHERE id(n) = $id RETURN m`: 1,
	} {
		if got := len(mustQuery(t, social, q, alice).Rows); got != want {
			t.Errorf("%s: %d rows, want %d", q, got, want)
		}
	}
	n := mustQuery(t, social, `USE GDB FOR SYSTEM_TIME AS OF 2 MATCH (n) WHERE id(n) = $id RETURN n`, alice).Rows[0][0].Node
	if n.Valid != (model.Interval{Start: 1, End: model.TSInfinity}) {
		t.Errorf("alice AS OF 2 is valid over %v, want [1, ∞): a snapshot at 2 does not know her update at 4", n.Valid)
	}
}

// TestAnchoredPatternsPlanOnce: an anchored AS OF pattern, typed or untyped,
// one hop in any direction, a chain or a var-hop, counts exactly one planner
// decision and, on a graph small enough for the LineageStore, replays
// no update; an unanchored one counts none.
func TestAnchoredPatternsPlanOnce(t *testing.T) {
	e := newEngine(t)
	mustQuery(t, e, `CREATE (a:P)-[:K]->(b:P)-[:L]->(c:P)`, nil)
	for i := 0; i < 12; i++ {
		mustQuery(t, e, `MATCH (c) WHERE id(c) = 2 CREATE (c)-[:L]->(:P), (:Q)`, nil)
	}
	if err := e.Sys.Aion.WaitSync(); err != nil {
		t.Fatal(err)
	}
	ts := e.Sys.Host.Clock()
	for _, c := range []struct {
		q         string
		decisions int64
	}{
		{`MATCH (a)-[:K*1..1]->(b) WHERE id(a) = 0 RETURN b`, 1},
		{`MATCH (a)-[r]->(b) WHERE id(a) = 0 RETURN b`, 1},
		{`MATCH (a)<-[r]-(b) WHERE id(a) = 1 RETURN b`, 1},
		{`MATCH (a)-[r]-(b) WHERE id(a) = 1 RETURN b`, 1},
		{`MATCH (a)-[:K]->(b)-[:L]->(c) WHERE id(a) = 0 RETURN c`, 1},
		{`MATCH (a)-[*1..2]->(b) WHERE id(a) = 0 RETURN b`, 1},
		{`MATCH (a) WHERE id(a) = 0 RETURN a`, 1},
		{`MATCH (a) RETURN count(*)`, 0},
	} {
		lineage0, time0 := e.Sys.Aion.PlannerDecisions()
		replayed0 := e.Sys.Aion.TimeStore().Stats().ReplayedUpdates
		rows := mustQuery(t, e, fmt.Sprintf("USE GDB FOR SYSTEM_TIME AS OF %d %s", ts, c.q), nil).Rows
		lineage, time := e.Sys.Aion.PlannerDecisions()
		replayed := e.Sys.Aion.TimeStore().Stats().ReplayedUpdates - replayed0
		if len(rows) == 0 || lineage-lineage0 != c.decisions || time != time0 || c.decisions == 1 && replayed != 0 {
			t.Errorf("%s: %d rows, %d LineageStore and %d TimeStore decisions, %d updates replayed; want rows, %d, 0, 0",
				c.q, len(rows), lineage-lineage0, time-time0, replayed, c.decisions)
		}
	}
}

// A var-hop's lower bound is at least one, at every time clause: *0..2 is a
// parse error, not the panic it was on the LineageStore path; and a negative
// hop count in aion.expand is an error.
func TestZeroAndNegativeHopsFail(t *testing.T) {
	e := seed(t)
	for _, clause := range []string{"", "USE GDB FOR SYSTEM_TIME AS OF 3 ", "USE GDB FOR SYSTEM_TIME FROM 1 TO 4 "} {
		for _, pat := range []string{"(n)-[*0..2]->(m)", "(n)-[*0]->(m)", "(n)-[:KNOWS*0..1]-(m)"} {
			q := clause + "MATCH " + pat + " WHERE id(n) = 0 RETURN m"
			if _, err := e.QueryContext(context.Background(), q, nil); err == nil || !strings.Contains(err.Error(), "parse error") {
				t.Errorf("%s: %v, want a parse error", q, err)
			}
		}
	}
	if _, err := e.QueryContext(context.Background(), `CALL aion.expand(0, 'out', $h, 3)`, map[string]model.Value{"h": model.IntValue(-1)}); err == nil {
		t.Error("aion.expand by -1 hops must fail")
	}
}

// TestLongExpandAllocatesPerHopReached: aion.expand's result grows one hop
// at a time as hops reach nodes, so 2^20 hops from an isolated node return no
// rows and allocate no 2^20-slot result first (24 MiB, 24 GB at 10^9 hops).
func TestLongExpandAllocatesPerHopReached(t *testing.T) {
	e := newEngine(t)
	mustQuery(t, e, `CREATE (n:X)`, nil)
	params := map[string]model.Value{"ts": model.IntValue(int64(e.Sys.Host.Clock()))}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := mustQuery(t, e, `CALL aion.expand(0, 'out', 1048576, $ts)`, params)
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; len(res.Rows) != 0 || n > 1<<20 {
		t.Errorf("2^20 hops from an isolated node: %d rows, %d bytes allocated; want none and at most 1 MiB", len(res.Rows), n)
	}
}
