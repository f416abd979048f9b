package hostdb

import (
	"errors"
	"testing"

	"aion/internal/model"
	"aion/internal/testkit/memshare"
	"aion/internal/wal"
)

// TestFollowerRefusesAShipmentItCannotApply: a shipment whose records decode and
// whose timestamps climb, but which deletes a node the follower never had, is
// refused before it reaches the follower's log. The follower's log, clock and
// graph are as they were, it reopens, and the shipment it should have had then
// applies. Appended and synced first, the record made every later Open fail.
func TestFollowerRefusesAShipmentItCannotApply(t *testing.T) {
	records := func(db *DB) (recs [][]byte) {
		_, txn := db.DurableExtents()
		b, err := db.TxnBytes(0, txn, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		for len(b) > 0 {
			recs, b = append(recs, b[:wal.Size(b)]), b[wal.Size(b):]
		}
		return recs
	}
	create := func(db *DB, n int) {
		if _, err := db.Run(func(tx *Tx) error {
			for i := 0; i < n; i++ {
				if _, err := tx.CreateNode(nil, nil); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	p1, p2 := openDB(t, Options{SyncCommits: true}), openDB(t, Options{SyncCommits: true})
	create(p1, 1) // ts 1: node 0
	create(p1, 1) // ts 2: node 1
	create(p2, 2) // ts 1: nodes 0 and 1
	if _, err := p2.Run(func(tx *Tx) error { return tx.DeleteNode(1) }); err != nil {
		t.Fatal(err) // ts 2
	}
	ours, theirs := records(p1), records(p2)

	dir := t.TempDir()
	f, err := Open(Options{Dir: dir, Replica: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.ApplyShipment(nil, ours[0]); err != nil {
		t.Fatal(err)
	}
	size := f.txnLog.Size()
	before, clock, _ := f.Committed()
	if _, err := f.ApplyShipment(nil, theirs[1]); !errors.Is(err, model.ErrNotFound) {
		t.Fatalf("a shipment deleting a node the follower lacks: %v, want ErrNotFound", err)
	}
	after, _, _ := f.Committed()
	if shared, _ := memshare.Records(after, before); f.txnLog.Size() != size || f.Clock() != clock ||
		after.Timestamp() != before.Timestamp() || after.NodeCount() != 1 || shared != 1 {
		t.Fatalf("the refused shipment left a trace: log %d -> %d B, clock %d -> %d, %d nodes",
			size, f.txnLog.Size(), clock, f.Clock(), after.NodeCount())
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	f, err = Open(Options{Dir: dir, Replica: true})
	if err != nil {
		t.Fatalf("reopening the follower: %v", err)
	}
	defer f.Close()
	if ts, err := f.ApplyShipment(nil, ours[1]); err != nil || ts != 2 {
		t.Fatalf("the right shipment after the refusal: ts %d, %v", ts, err)
	}
	if n, _ := f.Counts(); n != 2 {
		t.Fatalf("%d nodes after the right shipment, want 2", n)
	}
}
