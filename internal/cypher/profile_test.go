package cypher

import (
	"context"
	"slices"
	"strings"
	"testing"

	"aion/internal/hostdb"
	"aion/internal/lineagestore"
	"aion/internal/model"
	"aion/internal/testkit/refmodel"
)

// TestParseProfile: PROFILE prefixes a CALL; it is not a keyword, so a name
// spelled profile still parses, and it prefixes nothing else.
func TestParseProfile(t *testing.T) {
	for _, q := range []string{"PROFILE CALL aion.relationships(1, 'out', 3, 3)", "profile CALL aion.node(1, 2, 2)"} {
		st, err := Parse(q)
		if err != nil || !st.Profile || st.Call == nil {
			t.Errorf("Parse(%q) = %+v, %v; want a profiled CALL", q, st, err)
		}
	}
	if st, err := Parse("CALL aion.node(1, 2, 2)"); err != nil || st.Profile {
		t.Errorf("a plain CALL parses as %+v, %v", st, err)
	}
	if st, err := Parse("MATCH (profile:Person) RETURN profile.name"); err != nil || st.Profile {
		t.Errorf("a variable named profile: %+v, %v", st, err)
	}
	for _, q := range []string{"PROFILE MATCH (n) RETURN n", "PROFILE", "PROFILE PROFILE CALL aion.stats()"} {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) succeeded, want PROFILE to take a CALL only", q)
		}
	}
}

// TestProfileRelationships: PROFILE CALL aion.relationships returns one row
// per operator — the outgoing cluster scan, the in-neighbour scan, the
// incoming version walks — and then the call's own, whose rows are the plain
// call's and whose descents, gets and decoded records sum the operators'.
func TestProfileRelationships(t *testing.T) {
	e := seed(t)
	q := "CALL aion.relationships($id, 'both', 3, 3)"
	params := map[string]model.Value{"id": model.IntValue(1)} // bob: KNOWS from alice, KNOWS to berlin
	plain := mustQuery(t, e, q, params)
	if len(plain.Rows) != 2 {
		t.Fatalf("bob has %d relationships at 3, want 2", len(plain.Rows))
	}
	res := mustQuery(t, e, "PROFILE "+q, params)
	if want := []string{"operator", "store", "rows", "descents", "gets", "decoded", "us"}; !slices.Equal(res.Columns, want) {
		t.Fatalf("columns %v, want %v", res.Columns, want)
	}
	ops := []string{"OutgoingScan outrels.idx", "IncomingScan in.idx", "IncomingVersions outrels.idx", "ProcedureCall aion.relationships"}
	if len(res.Rows) != len(ops) {
		t.Fatalf("%d rows, want one per operator %v", len(res.Rows), ops)
	}
	var sum [3]int64
	for i, row := range res.Rows {
		v := func(j int) model.Value { return row[j].S }
		if v(0).Str() != ops[i] || i < len(ops)-1 && v(1).Str() != "LineageStore" {
			t.Errorf("row %d is %q in %q, want %q in the LineageStore", i, v(0).Str(), v(1).Str(), ops[i])
		}
		if v(6).Float() < 0 {
			t.Errorf("%s took %v µs", ops[i], v(6).Float())
		}
		if i == len(ops)-1 {
			if v(2).Int() != int64(len(plain.Rows)) || v(3).Int() != sum[0] || v(4).Int() != sum[1] || v(5).Int() != sum[2] {
				t.Errorf("the call's row %v, want %d rows and the operators' sums %v", row, len(plain.Rows), sum)
			}
			continue
		}
		if v(3).Int() < 1 || v(4).Int() < v(3).Int() {
			t.Errorf("%s: %d descents, %d gets: each operator descends at least once, and a descent reads a page", ops[i], v(3).Int(), v(4).Int())
		}
		sum[0], sum[1], sum[2] = sum[0]+v(3).Int(), sum[1]+v(4).Int(), sum[2]+v(5).Int()
	}
	if sum[2] < int64(len(plain.Rows)) {
		t.Errorf("%d records decoded for %d versions", sum[2], len(plain.Rows))
	}
	// A YIELD naming no column fails with PROFILE as without it.
	for _, q := range []string{q + " YIELD nosuch", "PROFILE " + q + " YIELD nosuch"} {
		if _, err := e.QueryContext(context.Background(), q, params); err == nil || !strings.Contains(err.Error(), "does not yield") {
			t.Errorf("%s: err %v, want \"does not yield\"", q, err)
		}
	}
}

// TestProfileRelationship: PROFILE CALL aion.relationship returns the point
// walk's row and then the call's. A relationship under one source takes one
// descent into outrels.idx; an id that came back under another source, whose
// cluster lies leaves away, takes one descent per source.
func TestProfileRelationship(t *testing.T) {
	e := newEngine(t)
	commit := func(f func(tx *hostdb.Tx) error) model.Timestamp {
		t.Helper()
		tx := e.Sys.Host.Begin()
		if err := f(tx); err != nil {
			tx.Rollback()
			t.Fatal(err)
		}
		ts, err := tx.Commit()
		if err != nil {
			t.Fatal(err)
		}
		return ts
	}
	// Nodes 0..99; relationship 1 leaves node 0, then node 99. The 2 000
	// relationships of the nodes between put the two clusters leaves apart.
	commit(func(tx *hostdb.Tx) error {
		for i := 0; i < 100; i++ {
			if err := tx.CreateNodeWithID(model.NodeID(i), nil, nil); err != nil {
				return err
			}
		}
		for i := 0; i < 2000; i++ {
			if err := tx.CreateRelWithID(model.RelID(100+i), model.NodeID(1+i%98), model.NodeID(i%100), "R", nil); err != nil {
				return err
			}
		}
		return tx.CreateRelWithID(1, 0, 1, "R", nil)
	})
	commit(func(tx *hostdb.Tx) error { return tx.DeleteRel(1) })
	last := commit(func(tx *hostdb.Tx) error { return tx.CreateRelWithID(1, 99, 0, "S", nil) })
	if err := e.Sys.Aion.WaitSync(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		rel                int64
		start, end         model.Timestamp
		versions, descents int64
	}{
		{500, last, last, 1, 1}, // one source
		{1, 0, last + 1, 2, 2},  // two sources, a version in each
		{1, last, last, 1, 2},   // both sources walked, one version live
	} {
		q := "CALL aion.relationship($id, $s, $e)"
		params := map[string]model.Value{"id": model.IntValue(c.rel), "s": model.IntValue(int64(c.start)), "e": model.IntValue(int64(c.end))}
		if plain := mustQuery(t, e, q, params); int64(len(plain.Rows)) != c.versions {
			t.Fatalf("rel %d over [%d, %d): %d versions, want %d", c.rel, c.start, c.end, len(plain.Rows), c.versions)
		}
		res := mustQuery(t, e, "PROFILE "+q, params)
		if len(res.Rows) != 2 {
			t.Fatalf("rel %d: %d rows, want the point walk's and the call's", c.rel, len(res.Rows))
		}
		for i, op := range []string{"PointVersions outrels.idx", "ProcedureCall aion.relationship"} {
			row := res.Rows[i]
			if row[0].S.Str() != op || row[2].S.Int() != c.versions || row[3].S.Int() != c.descents {
				t.Errorf("rel %d over [%d, %d): row %v, want %s with %d rows and %d descents", c.rel, c.start, c.end, row, op, c.versions, c.descents)
			}
		}
	}
}

// TestProfileHubScan: the outgoing scan of a hub whose cluster spans several
// leaves — delta chains, materialized records, a deletion and a re-insertion —
// is one descent and one forward pass. At every commit timestamp, at an
// instant and over windows, PROFILE reports one descent and exactly the
// records the walk must decode: the chain each relationship's state at the
// window's start hangs from, a full record and the deltas since, and one per
// live record inside the window. The plain call's rows match the reference
// model.
func TestProfileHubScan(t *testing.T) {
	e := newEngine(t)
	m := &refmodel.Model{}
	e.Sys.Host.OnCommit(func(_ model.Timestamp, us []model.Update) { m.Apply(us...) })
	const hub, spokes = 0, 200 // under the cursor's yield stride: one descent, however many leaves
	type cell struct {
		ts   model.Timestamp
		kind byte // 'f' full, 'd' delta, 't' tombstone
	}
	var (
		cells  = map[model.RelID][]cell{}
		chain  = map[model.RelID]int{} // deltas since the relationship's last full record
		staged []model.RelID           // the relationships the commit under way writes a record of
		ts     model.Timestamp
	)
	put := func(id model.RelID, kind byte) {
		if chain[id]++; kind != 'd' {
			chain[id] = 0
		} else if chain[id] >= lineagestore.DefaultChainThreshold { // the write materializes the version
			kind, chain[id] = 'f', 0
		}
		cells[id], staged = append(cells[id], cell{kind: kind}), append(staged, id)
	}
	props := func(id model.RelID, round int) model.Properties { // wide values: the cluster fills leaves
		return model.Properties{"a": model.IntValue(int64(round) << 50), "b": model.IntValue(int64(id) << 52), "c": model.IntValue(-int64(round) << 48)}
	}
	commit := func(f func(tx *hostdb.Tx) error) {
		t.Helper()
		var err error
		if ts, err = e.Sys.Host.Run(f); err != nil {
			t.Fatal(err)
		}
		for _, id := range staged {
			cells[id][len(cells[id])-1].ts = ts
		}
		staged = staged[:0]
	}
	commit(func(tx *hostdb.Tx) error {
		for i := 0; i <= spokes; i++ {
			if err := tx.CreateNodeWithID(model.NodeID(i), nil, nil); err != nil {
				return err
			}
		}
		return nil
	})
	commit(func(tx *hostdb.Tx) error {
		for i := model.RelID(1); i <= spokes; i++ {
			put(i, 'f')
			if err := tx.CreateRelWithID(i, hub, model.NodeID(i), "R", props(i, 0)); err != nil {
				return err
			}
		}
		return nil
	})
	for round := 1; round <= 4; round++ { // three deltas each; a fourth on every second relationship materializes it
		commit(func(tx *hostdb.Tx) error {
			for i := model.RelID(1); i <= spokes; i++ {
				if round == 4 && i%2 == 1 {
					continue
				}
				put(i, 'd')
				if err := tx.SetRelProps(i, props(i, round), nil); err != nil {
					return err
				}
			}
			return nil
		})
	}
	commit(func(tx *hostdb.Tx) error {
		for _, i := range []model.RelID{7, 8} {
			put(i, 't')
			if err := tx.DeleteRel(i); err != nil {
				return err
			}
		}
		return nil
	})
	commit(func(tx *hostdb.Tx) error { put(7, 'f'); return tx.CreateRelWithID(7, hub, 3, "S", props(7, 9)) })
	commit(func(tx *hostdb.Tx) error { put(7, 'd'); return tx.SetRelProps(7, props(7, 10), nil) })
	if err := e.Sys.Aion.WaitSync(); err != nil {
		t.Fatal(err)
	}
	last := ts
	decoded := func(start, end model.Timestamp) (n int64) {
		for _, cs := range cells {
			at := 0 // records the state at start hangs from
			for _, c := range cs {
				switch {
				case c.ts > start && c.ts < end && c.kind != 't':
					n++
				case c.ts > start:
				case c.kind == 'd':
					at++
				case c.kind == 'f':
					at = 1
				default:
					at = 0
				}
			}
			n += int64(at)
		}
		return n
	}
	var windows [][2]model.Timestamp
	for at := model.Timestamp(0); at <= last+1; at++ {
		windows = append(windows, [2]model.Timestamp{at, at}, [2]model.Timestamp{at, last + 1}, [2]model.Timestamp{0, at + 1})
	}
	for _, w := range windows {
		params := map[string]model.Value{"s": model.IntValue(int64(w[0])), "e": model.IntValue(int64(w[1]))}
		const q = "CALL aion.relationships(0, 'out', $s, $e)"
		var got []*model.Rel
		for _, row := range mustQuery(t, e, q, params).Rows {
			got = append(got, row[0].Rel)
		}
		if want := slices.Concat(m.GetRelationships(hub, model.Outgoing, w[0], w[1])...); !refmodel.SameRels(got, want) {
			t.Fatalf("[%d, %d): %s, the model says %s", w[0], w[1], refmodel.ShowRels(got), refmodel.ShowRels(want))
		}
		op := mustQuery(t, e, "PROFILE "+q, params).Rows[0]
		if op[0].S.Str() != "OutgoingScan outrels.idx" || op[3].S.Int() != 1 || op[5].S.Int() != decoded(w[0], w[1]) {
			t.Errorf("[%d, %d): %v, want the outgoing scan with 1 descent and %d records decoded", w[0], w[1], op, decoded(w[0], w[1]))
		}
		if w == [2]model.Timestamp{last, last} && op[4].S.Int() < 4 {
			t.Errorf("the hub's scan reads %d pages: the cluster does not span 3 leaves", op[4].S.Int())
		}
	}
}
