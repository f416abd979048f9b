package hostdb

import (
	"errors"
	"testing"

	"aion/internal/model"
)

func commitNode(t *testing.T, db *DB) error {
	t.Helper()
	tx := db.Begin()
	if _, err := tx.CreateNode([]string{"N"}, model.Properties{"k": model.StringValue("v")}); err != nil {
		t.Fatal(err)
	}
	_, err := tx.Commit()
	return err
}

func TestPromoteFlipsReplicaWritable(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, Replica: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := commitNode(t, db); !errors.Is(err, ErrReplicaReadOnly) {
		t.Fatalf("replica commit err = %v, want ErrReplicaReadOnly", err)
	}
	if err := db.Promote(0); err == nil {
		t.Fatal("promote at epoch 0 (not above observed) must fail")
	}
	if err := db.Promote(1); err != nil {
		t.Fatalf("promote: %v", err)
	}
	if db.Role() != RolePrimary || db.Epoch() != 1 {
		t.Fatalf("role=%v epoch=%d after promote", db.Role(), db.Epoch())
	}
	if err := db.Promote(1); err != nil {
		t.Fatalf("re-promote at same epoch must be idempotent: %v", err)
	}
	if err := commitNode(t, db); err != nil {
		t.Fatalf("promoted commit: %v", err)
	}
	// Shipments are now rejected: the promoted node is the timeline's
	// authority.
	if _, err := db.ApplyShipment(nil, []byte{0}); err == nil {
		t.Fatal("ApplyShipment on promoted node must fail")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Promotion survives a restart even when relaunched with the stale
	// replica config.
	db2, err := Open(Options{Dir: dir, Replica: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Role() != RolePrimary || db2.Epoch() != 1 {
		t.Fatalf("after reopen: role=%v epoch=%d, want primary/1", db2.Role(), db2.Epoch())
	}
	if err := commitNode(t, db2); err != nil {
		t.Fatalf("commit after reopen: %v", err)
	}
}

func TestObserveHigherEpochFencesPrimary(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := commitNode(t, db); err != nil {
		t.Fatal(err)
	}
	// Same or lower epoch: no-op.
	if _, demoted, err := db.ObserveEpoch(0); err != nil || demoted {
		t.Fatalf("observe(0) = demoted %v err %v", demoted, err)
	}
	// Higher epoch: the primary fences itself.
	epoch, demoted, err := db.ObserveEpoch(3)
	if err != nil || !demoted || epoch != 3 {
		t.Fatalf("observe(3) = %d, %v, %v", epoch, demoted, err)
	}
	if db.Role() != RoleFenced {
		t.Fatalf("role = %v, want fenced", db.Role())
	}
	if err := commitNode(t, db); !errors.Is(err, ErrFenced) {
		t.Fatalf("fenced commit err = %v, want ErrFenced", err)
	}
	if _, err := db.ApplyShipment(nil, []byte{0}); err == nil {
		t.Fatal("fenced node must reject shipments")
	}
	if err := db.Promote(4); !errors.Is(err, ErrFenced) {
		t.Fatalf("fenced promote err = %v, want ErrFenced", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Fencing is sticky across restarts with the old primary config.
	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Role() != RoleFenced || db2.Epoch() != 3 {
		t.Fatalf("after reopen: role=%v epoch=%d, want fenced/3", db2.Role(), db2.Epoch())
	}
	if err := commitNode(t, db2); !errors.Is(err, ErrFenced) {
		t.Fatalf("reopened fenced commit err = %v, want ErrFenced", err)
	}
}

func TestObserveEpochOnReplicaAdoptsWithoutFencing(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, Replica: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, demoted, err := db.ObserveEpoch(2); err != nil || demoted {
		t.Fatalf("replica observe = demoted %v err %v", demoted, err)
	}
	if db.Role() != RoleReplica || db.Epoch() != 2 {
		t.Fatalf("role=%v epoch=%d, want replica/2", db.Role(), db.Epoch())
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(Options{Dir: dir, Replica: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Role() != RoleReplica || db2.Epoch() != 2 {
		t.Fatalf("after reopen: role=%v epoch=%d, want replica/2", db2.Role(), db2.Epoch())
	}
	// A promote after adopting epoch 2 must go above it.
	if err := db2.Promote(2); err == nil {
		t.Fatal("promote at observed epoch must fail")
	}
	if err := db2.Promote(3); err != nil {
		t.Fatalf("promote(3): %v", err)
	}
}

func TestTailCRCMatchesPrefix(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, SyncCommits: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 5; i++ {
		if err := commitNode(t, db); err != nil {
			t.Fatal(err)
		}
	}
	strOff, txnOff := db.DurableExtents()
	if strOff == 0 || txnOff == 0 {
		t.Fatalf("extents = %d,%d", strOff, txnOff)
	}
	sl, tl, sc, tc, err := db.TailCRC(strOff, txnOff, 1<<20, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if sl != strOff || tl != txnOff {
		t.Fatalf("tail lens %d,%d want %d,%d", sl, tl, strOff, txnOff)
	}
	// Recomputing over the same node's own ranges must match (the sweep
	// compares a follower's digest against the primary's files).
	sl2, tl2, sc2, tc2, err := db.TailCRC(strOff, txnOff, 1<<20, 1<<20)
	if err != nil || sl2 != sl || tl2 != tl || sc2 != sc || tc2 != tc {
		t.Fatalf("TailCRC not deterministic: %v", err)
	}
	// A bounded tail reads only the last maxTail bytes.
	sl3, tl3, _, _, err := db.TailCRC(strOff, txnOff, 8, 8)
	if err != nil || sl3 != 8 || tl3 != 8 {
		t.Fatalf("bounded tail = %d,%d (%v), want 8,8", sl3, tl3, err)
	}
}
