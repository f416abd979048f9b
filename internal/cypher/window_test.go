package cypher

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"aion/internal/hostdb"
	"aion/internal/model"
	"aion/internal/refmodel"
)

// stage puts the history's update u into tx.
func stage(tx *hostdb.Tx, u model.Update) error {
	switch u.Kind {
	case model.OpAddNode:
		return tx.CreateNodeWithID(u.NodeID, u.AddLabels, u.SetProps)
	case model.OpUpdateNode:
		if len(u.AddLabels)+len(u.DelLabels) > 0 {
			if err := tx.SetNodeLabels(u.NodeID, u.AddLabels, u.DelLabels); err != nil {
				return err
			}
		}
		return tx.SetNodeProps(u.NodeID, u.SetProps, u.DelProps)
	case model.OpDeleteNode:
		return tx.DeleteNode(u.NodeID)
	case model.OpAddRel:
		return tx.CreateRelWithID(u.RelID, u.Src, u.Tgt, u.RelLabel, u.SetProps)
	case model.OpUpdateRel:
		return tx.SetRelProps(u.RelID, u.SetProps, u.DelProps)
	default:
		return tx.DeleteRel(u.RelID)
	}
}

// commitHistory commits a seeded refmodel.History through e's host, a
// transaction per commit of it, and returns the model of what the host
// committed and its last timestamp.
func commitHistory(t *testing.T, e *Engine, seed int64, commits int) (*refmodel.Model, model.Timestamp) {
	t.Helper()
	m := &refmodel.Model{}
	e.Sys.Host.OnCommit(func(_ model.Timestamp, us []model.Update) { m.Apply(us...) })
	h := refmodel.NewHistory(seed)
	for h.TS < model.Timestamp(commits) {
		us := h.Commit(8)
		if _, err := e.Sys.Host.Run(func(tx *hostdb.Tx) error {
			for _, u := range us {
				if err := stage(tx, u); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Sys.Aion.WaitSync(); err != nil {
		t.Fatal(err)
	}
	return m, e.Sys.Host.Clock()
}

// rowsAsGraph turns rows of one node each, or of one relationship each, into
// Graph's form: sorted by id, labels sorted.
func rowsAsGraph(rows [][]Val) []model.Update {
	var out []model.Update
	for _, row := range rows {
		if n := row[0].Node; n != nil {
			out = append(out, model.AddNode(0, n.ID, sortedLabels(n.Labels), n.Props))
		} else if r := row[0].Rel; r != nil {
			out = append(out, model.AddRel(0, r.ID, r.Src, r.Tgt, r.Label, r.Props))
		}
	}
	slices.SortFunc(out, func(a, b model.Update) int { return cmp.Compare(a.EntityKey(), b.EntityKey()) })
	return out
}

func sortedLabels(labels []string) []string {
	labels = slices.Clone(labels)
	slices.Sort(labels)
	return labels
}

// sameGraph compares two graphs in Graph's form, stamps aside.
func sameGraph(a, b []model.Update) bool {
	return slices.EqualFunc(a, b, func(x, y model.Update) bool {
		return x.Kind == y.Kind && x.NodeID == y.NodeID && x.RelID == y.RelID && x.Src == y.Src && x.Tgt == y.Tgt &&
			x.RelLabel == y.RelLabel && slices.Equal(x.AddLabels, y.AddLabels) && x.SetProps.Equal(y.SetProps)
	})
}

// TestWindowMatchesTheReferenceModel: FROM a TO b over a non-anchored pattern
// matches the window [a+1, b) — its graph, or the graph at b when a+1 == b, or
// nothing when a >= b — at every pair of commit timestamps, against
// internal/refmodel's window.
func TestWindowMatchesTheReferenceModel(t *testing.T) {
	e := newEngine(t)
	m, last := commitHistory(t, e, 11, 24)
	if n := len(m.Window(0, last+1)); n < 20 {
		t.Fatalf("the history's whole window holds %d entities: too few to check", n)
	}
	for a := model.Timestamp(0); a <= last+1; a++ {
		for b := model.Timestamp(0); b <= last+1; b++ {
			clause := fmt.Sprintf("USE GDB FOR SYSTEM_TIME FROM %d TO %d ", a, b)
			nodes := mustQuery(t, e, clause+"MATCH (n) RETURN n", nil)
			rels := mustQuery(t, e, clause+"MATCH (x)-[r]->(y) RETURN r", nil)
			want := m.Window(a+1, b)
			for i := range want {
				want[i].AddLabels = sortedLabels(want[i].AddLabels)
			}
			if got := append(rowsAsGraph(nodes.Rows), rowsAsGraph(rels.Rows)...); !sameGraph(got, want) {
				t.Fatalf("FROM %d TO %d matched %d entities, the model's window [%d, %d) holds %d", a, b, len(got), a+1, b, len(want))
			}
		}
	}
}

// The same window over a 40-spoke hub answers in one row order every time.
func TestWindowRowOrderIsStable(t *testing.T) {
	e := newEngine(t)
	mustQuery(t, e, `CREATE (h:H)`, nil)
	for i := 0; i < 40; i++ {
		mustQuery(t, e, `MATCH (h:H) CREATE (h)-[:S]->(s:Spoke)`, nil)
	}
	if err := e.Sys.Aion.WaitSync(); err != nil {
		t.Fatal(err)
	}
	const q = `USE GDB FOR SYSTEM_TIME FROM 0 TO 1000 MATCH (a:H)-[r]->(b) RETURN id(b)`
	first := fmt.Sprint(mustQuery(t, e, q, nil).Rows)
	for run := 1; run < 10; run++ {
		if got := fmt.Sprint(mustQuery(t, e, q, nil).Rows); got != first {
			t.Fatalf("run %d returned\n%s\nthe first\n%s", run, got, first)
		}
	}
}

// A relationship created at 3, updated at 4 and deleted at 8 flies [3, 4) and
// [4, 8); a range from 4 on holds only the second flight, and one from 5 on
// neither.
func TestTemporalPathsOverAnUpdatedFlight(t *testing.T) {
	e := newEngine(t)
	for _, q := range []string{
		`CREATE (a:AP), (b:AP)`,
		`CREATE (:X)`,
		`MATCH (a), (b) WHERE id(a) = 0 AND id(b) = 1 CREATE (a)-[:F]->(b)`,
		`MATCH (a)-[r:F]->(b) SET r.gate = 4`,
		`CREATE (:X)`,
		`CREATE (:X)`,
		`CREATE (:X)`,
		`MATCH (a)-[r:F]->(b) DELETE r`,
	} {
		mustQuery(t, e, q, nil)
	}
	if err := e.Sys.Aion.WaitSync(); err != nil {
		t.Fatal(err)
	}
	if clock := e.Sys.Host.Clock(); clock != 8 {
		t.Fatalf("the history ends at %d, want 8", clock)
	}
	at := func(q string, node int64) (int64, bool) {
		for _, row := range mustQuery(t, e, q, nil).Rows {
			if row[0].S.Int() == node {
				return row[1].S.Int(), true
			}
		}
		return 0, false
	}
	for _, w := range []struct {
		from          int64
		arrive, leave int64 // at 1 from 0 leaving at from, and from 0 to reach 1 by 9; -1 for none
	}{{3, 4, 4}, {4, 8, 4}, {5, -1, -1}} {
		arr, ok := at(fmt.Sprintf(`CALL aion.temporal.earliestArrival(0, %d, %d, 9)`, w.from, w.from), 1)
		if ok != (w.arrive >= 0) || ok && arr != w.arrive {
			t.Errorf("from %d: earliest arrival at 1 = %d (reached %v), want %d", w.from, arr, ok, w.arrive)
		}
		dep, ok := at(fmt.Sprintf(`CALL aion.temporal.latestDeparture(1, 9, %d, 9)`, w.from), 0)
		if ok != (w.leave >= 0) || ok && dep != w.leave {
			t.Errorf("over [%d, 9): latest departure from 0 = %d (reachable %v), want %d", w.from, dep, ok, w.leave)
		}
	}
}
