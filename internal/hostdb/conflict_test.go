package hostdb

import (
	"os"
	"path/filepath"
	"testing"

	"aion/internal/model"
)

// TestCommitConflictAborts makes two transactions delete the same
// relationship; the second commit must abort and leave the graph
// consistent.
func TestCommitConflictAborts(t *testing.T) {
	db := openDB(t, Options{})
	var rel model.RelID
	db.Run(func(tx *Tx) error {
		a, _ := tx.CreateNode(nil, nil)
		b, _ := tx.CreateNode(nil, nil)
		rel, _ = tx.CreateRel(a, b, "R", nil)
		return nil
	})
	tx1 := db.Begin()
	tx2 := db.Begin()
	if err := tx1.DeleteRel(rel); err != nil {
		t.Fatal(err)
	}
	if err := tx2.DeleteRel(rel); err != nil {
		t.Fatal(err) // both validate against their views
	}
	if _, err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.Commit(); err == nil {
		t.Fatal("conflicting commit must abort")
	}
	nodes, rels := db.Counts()
	if nodes != 2 || rels != 0 {
		t.Errorf("post-conflict counts %d/%d", nodes, rels)
	}
}

// TestConflictRollbackRestoresPrefix verifies a commit whose later update
// conflicts rolls back its earlier (already applied) updates.
func TestConflictRollbackRestoresPrefix(t *testing.T) {
	db := openDB(t, Options{})
	var node model.NodeID
	db.Run(func(tx *Tx) error {
		node, _ = tx.CreateNode(nil, nil)
		return nil
	})
	// tx adds a node (applies cleanly) and then deletes `node`;
	// concurrently another commit deletes `node` first, so tx's delete
	// conflicts and its created node must be rolled back.
	tx := db.Begin()
	if _, err := tx.CreateNode([]string{"Mine"}, nil); err != nil {
		t.Fatal(err)
	}
	if err := tx.DeleteNode(node); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Run(func(other *Tx) error { return other.DeleteNode(node) }); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err == nil {
		t.Fatal("commit must conflict")
	}
	nodes, _ := db.Counts()
	if nodes != 0 {
		t.Errorf("rolled-back prefix leaked: %d nodes", nodes)
	}
	g := db.Current()
	found := false
	g.ForEachNode(func(n *model.Node) bool {
		if n.HasLabel("Mine") {
			found = true
		}
		return true
	})
	if found {
		t.Error("aborted transaction's node visible")
	}
}

// TestConflictListenerNotFired ensures aborted commits never reach the
// after-commit listeners (Aion must only see committed state).
func TestConflictListenerNotFired(t *testing.T) {
	db := openDB(t, Options{})
	var node model.NodeID
	db.Run(func(tx *Tx) error {
		node, _ = tx.CreateNode(nil, nil)
		return nil
	})
	events := 0
	db.OnCommit(func(ts model.Timestamp, us []model.Update) { events++ })
	tx := db.Begin()
	tx.DeleteNode(node)
	db.Run(func(other *Tx) error { return other.DeleteNode(node) }) // wins
	tx.Commit()                                                     // aborts
	if events != 1 {
		t.Errorf("listeners fired %d times, want 1 (the winning commit)", events)
	}
}

// TestOverlayReadYourWrites exercises the overlay view accessors.
func TestOverlayReadYourWrites(t *testing.T) {
	db := openDB(t, Options{})
	var a, b model.NodeID
	var r model.RelID
	db.Run(func(tx *Tx) error {
		a, _ = tx.CreateNode(nil, model.Properties{"k": model.IntValue(1)})
		b, _ = tx.CreateNode(nil, nil)
		r, _ = tx.CreateRel(a, b, "R", nil)
		return nil
	})
	tx := db.Begin()
	// Staged property update visible to the tx, invisible outside.
	tx.SetNodeProps(a, model.Properties{"k": model.IntValue(2)}, nil)
	if tx.Node(a).Props["k"].Int() != 2 {
		t.Error("tx must see staged update")
	}
	if db.Current().Node(a).Props["k"].Int() != 1 {
		t.Error("staged update leaked")
	}
	// Staged deletion hides the rel from the tx.
	tx.DeleteRel(r)
	if tx.Rel(r) != nil {
		t.Error("deleted rel visible in tx")
	}
	if got := tx.IncidentRels(a); len(got) != 0 {
		t.Errorf("incident rels after staged delete: %v", got)
	}
	// A staged new rel appears in IncidentRels.
	nr, err := tx.CreateRel(b, a, "R2", nil)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, rid := range tx.IncidentRels(a) {
		if rid == nr {
			found = true
		}
	}
	if !found {
		t.Error("staged rel missing from IncidentRels")
	}
	tx.Rollback()
	if db.Current().Rel(r) == nil {
		t.Error("rollback must leave committed rel intact")
	}
}

// TestDeleteNodeCountsStagedRels checks the relDelta bookkeeping: deleting
// a node is allowed once its last incident rel is staged-deleted, and
// refused if a staged rel still points at it.
func TestDeleteNodeCountsStagedRels(t *testing.T) {
	db := openDB(t, Options{})
	var a, b model.NodeID
	var r model.RelID
	db.Run(func(tx *Tx) error {
		a, _ = tx.CreateNode(nil, nil)
		b, _ = tx.CreateNode(nil, nil)
		r, _ = tx.CreateRel(a, b, "R", nil)
		return nil
	})
	tx := db.Begin()
	if err := tx.DeleteNode(b); err == nil {
		t.Fatal("delete with committed rel must fail")
	}
	tx.DeleteRel(r)
	if err := tx.DeleteNode(b); err != nil {
		t.Fatalf("delete after staged rel-delete: %v", err)
	}
	// And the other direction: a staged new rel blocks deletion.
	tx2 := db.Begin()
	c, _ := tx2.CreateNode(nil, nil)
	tx2.CreateRel(a, c, "R", nil)
	if err := tx2.DeleteNode(c); err == nil {
		t.Fatal("delete with staged incident rel must fail")
	}
	tx2.Rollback()
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestRecordStoreFilesWritten checks the Neo4j-style store files exist and
// grow with the data.
func TestRecordStoreFilesWritten(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	db.Run(func(tx *Tx) error {
		for i := 0; i < 2000; i++ {
			if _, err := tx.CreateNode(nil, model.Properties{"p": model.IntValue(1)}); err != nil {
				return err
			}
		}
		return nil
	})
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"neostore.nodestore.db", "neostore.propertystore.db"} {
		st, err := osStat(dir, f)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if st <= 0 {
			t.Errorf("%s empty", f)
		}
	}
}

func osStat(dir, name string) (int64, error) {
	st, err := os.Stat(filepath.Join(dir, name))
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// TestAbortedCommitLeavesTheGraphAtTheClock pins the graph's timestamp after
// a conflict: the aborted transaction's partial apply and its compensating
// deletes carry the timestamp the commit would have got, and Committed must
// never hand out a graph stamped with it. Both undo branches are covered: the
// structural one (the applied prefix only created entities) and the rebuild
// from the log (the prefix updated a pre-existing entity).
func TestAbortedCommitLeavesTheGraphAtTheClock(t *testing.T) {
	for _, tc := range []struct {
		name   string
		prefix func(tx *Tx, keep model.NodeID) error
	}{
		{"structural", func(tx *Tx, _ model.NodeID) error {
			_, err := tx.CreateNode([]string{"Mine"}, nil)
			return err
		}},
		{"rebuildFromLog", func(tx *Tx, keep model.NodeID) error {
			return tx.SetNodeProps(keep, model.Properties{"k": model.IntValue(2)}, nil)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := openDB(t, Options{})
			var keep, doomed model.NodeID
			db.Run(func(tx *Tx) error {
				keep, _ = tx.CreateNode(nil, model.Properties{"k": model.IntValue(1)})
				doomed, _ = tx.CreateNode(nil, nil)
				return nil
			})
			tx := db.Begin()
			if err := tc.prefix(tx, keep); err != nil {
				t.Fatal(err)
			}
			if err := tx.DeleteNode(doomed); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Run(func(other *Tx) error { return other.DeleteNode(doomed) }); err != nil {
				t.Fatal(err)
			}
			if _, err := tx.Commit(); err == nil {
				t.Fatal("commit must conflict")
			}
			g, clock, updates := db.Committed()
			if g.Timestamp() != clock || clock != db.Clock() || clock != 2 {
				t.Errorf("after the abort the graph is stamped %d, Committed says %d, the clock is %d (want 2)",
					g.Timestamp(), clock, db.Clock())
			}
			if updates != 3 {
				t.Errorf("committed updates = %d, want 3 (the aborted transaction's do not count)", updates)
			}
			if n := g.Node(keep); n == nil || n.Props["k"].Int() != 1 || g.NodeCount() != 1 {
				t.Errorf("aborted transaction left a trace: node %v, %d nodes", n, g.NodeCount())
			}
		})
	}
}
