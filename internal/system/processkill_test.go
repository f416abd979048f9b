package system

// Process-death regression test, distinct from the power-loss sweeps in
// crash_test.go: when only the PROCESS dies (kill -9), every byte already
// written to the filesystem survives — the page cache outlives the process
// — but user-space buffers are lost. The WAL appends through unbuffered
// WriteAt while the string table writes through a bufio.Writer, so without
// the strings-Flush-before-log-append ordering (hostdb commitBatch,
// timestore AppendBatch) the surviving files could hold log
// records whose string refs were never written, and reopen would fail with
// "strstore: dangling ref". The FaultFS models this crash mode exactly by
// NOT calling Crash(): all written bytes remain visible, all buffered
// bytes are simply never written.

import (
	"context"
	"fmt"
	"testing"

	"aion/internal/aion"
	"aion/internal/model"
	"aion/internal/testkit/vfstest"
)

func TestProcessKillRecoversAckedCommits(t *testing.T) {
	fs := vfstest.NewFaultFS()
	s, err := Open(Options{
		Dir:         "sys",
		SyncCommits: false, // no fsync ever: durability comes only from write ordering
		FS:          fs,
		Aion: aion.Options{
			SnapshotEveryOps: 1 << 30,
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Every transaction interns fresh strings (label, prop key) so each
	// log record references string-table bytes written in the same batch —
	// the exact bytes an unflushed buffer would lose.
	const txns = 25
	for i := 0; i < txns; i++ {
		tx := s.Host.Begin()
		props := model.Properties{fmt.Sprintf("k%d", i): model.IntValue(int64(i))}
		if err := tx.CreateNodeWithID(model.NodeID(i+1), []string{fmt.Sprintf("L%d", i)}, props); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	acked := s.Host.Clock()
	// Quiesce Aion's ingestion so the timestore log appends (and their
	// strings flushes) for every commit have happened before the "kill".
	if err := s.Aion.WaitSync(); err != nil {
		t.Fatal(err)
	}
	// kill -9: abandon the instance. No Close, no Sync — nothing gets a
	// chance to flush buffers.

	s2, err := Open(Options{
		Dir:         "sys",
		SyncCommits: true,
		FS:          fs,
		Aion: aion.Options{
			SnapshotEveryOps: 1 << 30,
		},
	})
	if err != nil {
		t.Fatalf("reopen after process kill: %v", err)
	}
	defer s2.Close()
	if got := s2.Host.Clock(); got != acked {
		t.Fatalf("recovered host clock %d, want %d (all acked commits)", got, acked)
	}
	if nodes, _ := s2.Host.Counts(); nodes != txns {
		t.Fatalf("recovered %d nodes, want %d", nodes, txns)
	}
	if got := s2.Aion.LatestTimestamp(); got != acked {
		t.Fatalf("recovered temporal store at ts %d, want %d", got, acked)
	}
	// The per-txn strings must have survived: read one back through the
	// temporal store.
	vs, err := s2.Aion.GetNodeContext(context.Background(), model.NodeID(txns), 0, model.TSInfinity)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) == 0 || len(vs[0].Labels) == 0 || vs[0].Labels[0] != fmt.Sprintf("L%d", txns-1) {
		t.Fatalf("recovered node %d history %+v, want label L%d", txns, vs, txns-1)
	}
}
