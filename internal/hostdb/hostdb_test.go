package hostdb

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"aion/internal/model"
	"aion/internal/testkit/vfstest"
	"aion/internal/vfs"
	"aion/internal/wal"
)

func openDB(t *testing.T, opts Options) *DB {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestBasicTransaction(t *testing.T) {
	db := openDB(t, Options{})
	tx := db.Begin()
	a, err := tx.CreateNode([]string{"Person"}, model.Properties{"name": model.StringValue("ada")})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := tx.CreateNode([]string{"Person"}, nil)
	r, err := tx.CreateRel(a, b, "KNOWS", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Read-your-writes before commit.
	if tx.Node(a) == nil || tx.Rel(r) == nil {
		t.Fatal("transaction must see its own writes")
	}
	// Not visible outside before commit.
	if g, _, _ := db.Committed(); g.Node(a) != nil {
		t.Fatal("uncommitted write visible")
	}
	ts, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if ts != 1 {
		t.Errorf("first commit ts = %d", ts)
	}
	g, _, _ := db.Committed()
	if g.Node(a) == nil || g.Rel(r) == nil {
		t.Fatal("committed writes missing")
	}
}

func TestRollback(t *testing.T) {
	db := openDB(t, Options{})
	tx := db.Begin()
	tx.CreateNode(nil, nil)
	tx.Rollback()
	if _, err := tx.Commit(); err != ErrRolledBack {
		t.Errorf("commit after rollback: %v", err)
	}
	if n, _ := db.Counts(); n != 0 {
		t.Error("rolled-back write persisted")
	}
	// A relationship's deletion or update on a finished transaction is
	// refused as such, whether or not the relationship exists.
	var rel model.RelID
	if _, err := db.Run(func(tx *Tx) error {
		a, _ := tx.CreateNode(nil, nil)
		var err error
		rel, err = tx.CreateRel(a, a, "R", nil)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	for _, id := range []model.RelID{rel, rel + 1} {
		if err := tx.DeleteRel(id); err != ErrRolledBack {
			t.Errorf("DeleteRel(%d) after rollback: %v", id, err)
		}
		if err := tx.SetRelProps(id, model.Properties{"k": model.IntValue(1)}, nil); err != ErrRolledBack {
			t.Errorf("SetRelProps(%d) after rollback: %v", id, err)
		}
	}
}

func TestCommitTimestampsMonotonic(t *testing.T) {
	db := openDB(t, Options{})
	var last model.Timestamp
	for i := 0; i < 10; i++ {
		ts, err := db.Run(func(tx *Tx) error {
			_, err := tx.CreateNode(nil, nil)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if ts <= last {
			t.Fatalf("non-monotonic commit ts %d after %d", ts, last)
		}
		last = ts
	}
}

func TestListenersReceiveStampedUpdates(t *testing.T) {
	db := openDB(t, Options{})
	var mu sync.Mutex
	var got []model.Update
	var gotTS model.Timestamp
	db.OnCommit(func(ts model.Timestamp, us []model.Update) {
		mu.Lock()
		defer mu.Unlock()
		gotTS = ts
		got = append(got, us...)
	})
	db.Run(func(tx *Tx) error {
		a, _ := tx.CreateNode([]string{"X"}, nil)
		b, _ := tx.CreateNode(nil, nil)
		_, err := tx.CreateRel(a, b, "R", nil)
		return err
	})
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 3 {
		t.Fatalf("listener saw %d updates", len(got))
	}
	for _, u := range got {
		if u.TS != gotTS || u.TS == 0 {
			t.Errorf("update not stamped: %+v", u)
		}
	}
}

func TestConstraintsSurfaceAtOperationTime(t *testing.T) {
	db := openDB(t, Options{})
	db.Run(func(tx *Tx) error {
		a, _ := tx.CreateNode(nil, nil)
		b, _ := tx.CreateNode(nil, nil)
		_, err := tx.CreateRel(a, b, "R", nil)
		return err
	})
	tx := db.Begin()
	// Deleting a node that still has a relationship fails eagerly.
	if err := tx.DeleteNode(0); err == nil {
		t.Error("delete with rels must fail")
	}
	// Dangling rel creation fails eagerly.
	if _, err := tx.CreateRel(0, 999, "R", nil); err == nil {
		t.Error("dangling rel must fail")
	}
	tx.Rollback()
}

func TestDeleteFlow(t *testing.T) {
	db := openDB(t, Options{})
	var rel model.RelID
	db.Run(func(tx *Tx) error {
		a, _ := tx.CreateNode(nil, nil)
		b, _ := tx.CreateNode(nil, nil)
		rel, _ = tx.CreateRel(a, b, "R", nil)
		return nil
	})
	_, err := db.Run(func(tx *Tx) error {
		if err := tx.DeleteRel(rel); err != nil {
			return err
		}
		return tx.DeleteNode(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	nodes, rels := db.Counts()
	if nodes != 1 || rels != 0 {
		t.Errorf("counts after delete: %d/%d", nodes, rels)
	}
}

func TestConcurrentWriters(t *testing.T) {
	db := openDB(t, Options{})
	const writers = 8
	const perWriter = 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := db.Run(func(tx *Tx) error {
					_, err := tx.CreateNode([]string{"W"}, nil)
					return err
				}); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	nodes, _ := db.Counts()
	if nodes != writers*perWriter {
		t.Errorf("nodes = %d, want %d", nodes, writers*perWriter)
	}
	if db.Clock() != model.Timestamp(writers*perWriter) {
		t.Errorf("clock = %d", db.Clock())
	}
}

func TestRecoveryFromTxnLog(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	db.Run(func(tx *Tx) error {
		a, _ := tx.CreateNode([]string{"P"}, model.Properties{"k": model.IntValue(1)})
		b, _ := tx.CreateNode(nil, nil)
		tx.CreateRel(a, b, "R", nil)
		return nil
	})
	db.Run(func(tx *Tx) error { return tx.SetNodeProps(0, model.Properties{"k": model.IntValue(2)}, nil) })
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	nodes, rels := db2.Counts()
	if nodes != 2 || rels != 1 {
		t.Fatalf("recovered counts %d/%d", nodes, rels)
	}
	if g, _, _ := db2.Committed(); g.Node(0).Props["k"].Int() != 2 {
		t.Error("recovered property value")
	}
	if db2.Clock() != 2 {
		t.Errorf("recovered clock = %d", db2.Clock())
	}
	// New ids continue after recovered ones.
	var newID model.NodeID
	db2.Run(func(tx *Tx) error {
		newID, _ = tx.CreateNode(nil, nil)
		return nil
	})
	if newID != 2 {
		t.Errorf("new node id = %d, want 2", newID)
	}
}

// TestRecoveryRefusesAnUndecodableCommit: a log frame that passes its CRC but
// does not decode fails the reopen instead of silently ending the replay,
// which would drop every commit logged after it.
func TestRecoveryRefusesAnUndecodableCommit(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := db.Run(func(tx *Tx) error {
			_, err := tx.CreateNode([]string{"P"}, nil)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.txnLog.Append([]byte{1}); err != nil { // one update announced, none there
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err := Open(Options{Dir: dir}); err == nil {
		db.Close()
		t.Fatal("a log with an undecodable commit reopened without an error")
	}
}

// failSyncDirFS is the OS filesystem with every directory sync failing.
type failSyncDirFS struct{ vfs.FS }

func (failSyncDirFS) SyncDir(string) error { return vfstest.ErrInjected }

// TestFailedOpenClosesItsFiles: an Open that fails at its last step — after
// the string table, the transaction log and the three record stores are open
// — must close all of them.
func TestFailedOpenClosesItsFiles(t *testing.T) {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no descriptor table to count: %v", err)
	}
	dir := t.TempDir()
	for i := 0; i < 50; i++ {
		if _, err := Open(Options{Dir: dir, FS: failSyncDirFS{vfs.OS}}); !errors.Is(err, vfstest.ErrInjected) {
			t.Fatalf("round %d: Open = %v, want the injected fault", i, err)
		}
	}
	if after, _ := os.ReadDir("/proc/self/fd"); len(after) > len(ents) {
		t.Errorf("%d descriptors open after 50 failed Opens, %d before", len(after), len(ents))
	}
}

func TestStorageBreakdown(t *testing.T) {
	db := openDB(t, Options{})
	db.Run(func(tx *Tx) error {
		a, _ := tx.CreateNode([]string{"P"}, model.Properties{"x": model.IntValue(1), "y": model.IntValue(2)})
		b, _ := tx.CreateNode(nil, nil)
		tx.CreateRel(a, b, "R", model.Properties{"w": model.FloatValue(1)})
		return nil
	})
	b := db.Storage()
	if b.NodeRecords != 2*NodeRecordBytes {
		t.Errorf("node records = %d", b.NodeRecords)
	}
	if b.RelRecords != RelRecordBytes {
		t.Errorf("rel records = %d", b.RelRecords)
	}
	if b.PropRecords != 3*PropRecordBytes {
		t.Errorf("prop records = %d", b.PropRecords)
	}
	if b.TxnLog == 0 {
		t.Error("txn log must be retained")
	}
	if b.Total() <= b.TxnLog {
		t.Error("total must include records")
	}
}

func TestEmptyCommitIsNoop(t *testing.T) {
	db := openDB(t, Options{})
	before := db.Clock()
	tx := db.Begin()
	ts, err := tx.Commit()
	if err != nil || ts != before {
		t.Errorf("empty commit: ts %d err %v", ts, err)
	}
}

// TestReplayCommittedDecodesOnlyWhatItDelivers: for every `after`, the
// commits past it arrive byte-identical to what was logged, and the commits
// at or before it are skipped off a peek at their timestamp — shown by
// replaying a copy of the log in which exactly those commits no longer
// decode (their first update's entity type is made invalid; the timestamp
// that follows it stays readable).
func TestReplayCommittedDecodesOnlyWhatItDelivers(t *testing.T) {
	db := openDB(t, Options{})
	const commits = 12
	for i := 0; i < commits; i++ {
		tx := db.Begin()
		for j := 0; j <= i%3; j++ {
			if _, err := tx.CreateNode([]string{"N"}, model.Properties{"i": model.IntValue(int64(i*10 + j))}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	var logged [][]byte
	if _, err := db.txnLog.Scan(0, func(_ int64, p []byte) bool {
		logged = append(logged, append([]byte(nil), p...))
		return true
	}); err != nil || len(logged) != commits {
		t.Fatalf("scanned %d commits, %v", len(logged), err)
	}
	real := db.txnLog
	defer func() { db.txnLog = real }()
	for after := model.Timestamp(-1); after <= commits; after++ {
		poisoned, err := wal.OpenTemp(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range logged {
			p = append([]byte(nil), p...)
			if model.Timestamp(i+1) <= after {
				_, w := binary.Uvarint(p)
				p[w+4] |= 0b11 // neither TypeNode nor TypeRel
				if _, err := db.decodeCommit(nil, p); err == nil {
					t.Fatal("poisoned commit still decodes")
				}
			}
			if _, err := poisoned.Append(p); err != nil {
				t.Fatal(err)
			}
		}
		db.txnLog = poisoned
		next := int(max(after, 0))
		err = db.ReplayCommitted(after, func(ts model.Timestamp, us []model.Update) error {
			if ts != model.Timestamp(next+1) {
				t.Fatalf("after=%d: delivered ts %d, want %d", after, ts, next+1)
			}
			if p, err := db.encodeCommit(us); err != nil || !bytes.Equal(p, logged[next]) {
				t.Fatalf("after=%d: commit ts %d does not re-encode to the logged bytes (%v)", after, ts, err)
			}
			next++
			return nil
		})
		if err != nil {
			t.Fatalf("after=%d: %v", after, err)
		}
		if next != commits {
			t.Fatalf("after=%d: delivered through commit %d of %d", after, next, commits)
		}
		if err := poisoned.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTxnBytesStopAtTheCapturedExtent: a shipment reads its strings chunk
// after capturing the transaction-log extent, so its records must stop at that
// extent even when a later commit — whose record references strings the chunk
// does not hold — has become durable by the time the records are read.
func TestTxnBytesStopAtTheCapturedExtent(t *testing.T) {
	db := openDB(t, Options{SyncCommits: true})
	if _, err := db.Run(func(tx *Tx) error {
		_, err := tx.CreateNode([]string{"Early"}, nil)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	_, captured := db.DurableExtents()
	if _, err := db.Run(func(tx *Tx) error {
		_, err := tx.CreateNode([]string{"InternedAfterTheCapture"}, nil)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	txn, err := db.TxnBytes(0, captured, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if _, rest, err := wal.Cut(txn); err != nil || len(rest) != 0 || int64(len(txn)) != captured {
		t.Fatalf("%d bytes (%v), want the 1 commit record below the captured extent %d", len(txn), err, captured)
	}
	_, now := db.DurableExtents()
	next := int64(len(txn))
	if txn, err = db.TxnBytes(next, now, 1<<20); err != nil || next+int64(len(txn)) != now {
		t.Fatalf("resuming: %d bytes from %d (%v), want the second commit up to %d", len(txn), next, err, now)
	}
	if _, rest, err := wal.Cut(txn); err != nil || len(rest) != 0 {
		t.Fatalf("resuming: %d bytes after one record (%v), want the second commit alone", len(rest), err)
	}
}

// TestCommitRecordGolden pins the bytes of one commit record in the
// transaction log: the count, the length-prefixed updates, their before-images
// and the command envelopes, every string ref the 4 bytes of the Neo4j store
// the host emulates. The log and the records are the denominator of Aion's
// disk share, so they keep their bytes whatever Aion's own stores write.
func TestCommitRecordGolden(t *testing.T) {
	const (
		// count 2 | len, node 0 at ts 1: labels "Person" "Pilot", props
		// "age" (int) 36, "name" (string) "ada", "tags" (string array) "x"
		// "ada" | len, rel 0 at ts 1: src 0, tgt 0, label "KNOWS", props
		// "since" (float) 1.5 — each ref 4 bytes, its flags in the top 4 bits
		wantSection = "02270000000001000200000000000000010300000002483000000300000004600000050200000006000000041600000001010000000000000701100000083ff8000000000000"
		// the section, the before-images and the envelopes
		wantDigest = "ba4c8752f5cdbde2ec1b48d15197f2d678c83e69e9e1903dd58abdf2a5479f99"
	)
	dir := t.TempDir()
	db := openDB(t, Options{Dir: dir})
	if _, err := db.Run(func(tx *Tx) error {
		a, err := tx.CreateNode([]string{"Person", "Pilot"}, model.Properties{
			"name": model.StringValue("ada"), "tags": model.StringArrayValue([]string{"x", "ada"}), "age": model.IntValue(36)})
		if err != nil {
			return err
		}
		_, err = tx.CreateRel(a, a, "KNOWS", model.Properties{"since": model.FloatValue(1.5)})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	log, err := wal.Open(filepath.Join(dir, "neostore.transaction.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	rec, err := log.ReadAt(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(updateSection(rec)); got != wantSection {
		t.Errorf("the commit record's updates are %s, want %s", got, wantSection)
	}
	if sum := sha256.Sum256(rec); hex.EncodeToString(sum[:]) != wantDigest {
		t.Errorf("the %d-byte commit record's digest is %x, want %s", len(rec), sum, wantDigest)
	}
}
