package system

// Crash-recovery sweep for the combined host + Aion system, in the style of
// SQLite's torn-write tests: a deterministic transactional workload runs
// against a FaultFS, the filesystem fails at every mutating-operation index
// k = 1..N (plain fail-stop and torn-fsync modes), the "machine" crashes —
// discarding all unsynced bytes — and the system is reopened. Recovery must
// restore the host to a whole-transaction prefix of the committed stream
// (commit atomicity: never half a transaction), and reconciliation must
// bring Aion to exactly the host's recovered state, re-feeding any commits
// the host made durable but Aion had not yet synced.

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"

	"aion/internal/aion"
	"aion/internal/enc"
	"aion/internal/memgraph"
	"aion/internal/model"
	"aion/internal/strstore"
	"aion/internal/testkit/vfstest"
	"aion/internal/timestore"
	"aion/internal/vfs"
)

// sysOp is one staged operation inside a transaction.
type sysOp struct {
	kind     int // 0 addNode, 1 addRel, 2 setNodeProps, 3 delRel
	node     model.NodeID
	rel      model.RelID
	src, tgt model.NodeID
	val      int64
}

// genTxns builds a deterministic, always-valid transactional workload of
// txns transactions with 1-5 operations each (well over 200 updates total).
// Validity holds at staging time because transactions commit in generation
// order until the injected fault stops the run.
func genTxns(txns int) [][]sysOp {
	rng := rand.New(rand.NewSource(7))
	type relInfo struct {
		id       model.RelID
		src, tgt model.NodeID
	}
	var (
		out      [][]sysOp
		nodes    []model.NodeID
		rels     []relInfo
		nextNode model.NodeID = 1
		nextRel  model.RelID  = 1
	)
	for t := 0; t < txns; t++ {
		n := 1 + rng.Intn(5)
		ops := make([]sysOp, 0, n)
		for len(ops) < n {
			switch r := rng.Intn(10); {
			case r < 4 || len(nodes) < 2:
				id := nextNode
				nextNode++
				ops = append(ops, sysOp{kind: 0, node: id, val: int64(id)})
				nodes = append(nodes, id)
			case r < 7:
				i := rng.Intn(len(nodes))
				src, tgt := nodes[i], nodes[(i+1)%len(nodes)]
				id := nextRel
				nextRel++
				ops = append(ops, sysOp{kind: 1, rel: id, src: src, tgt: tgt, val: int64(id)})
				rels = append(rels, relInfo{id: id, src: src, tgt: tgt})
			case r < 9 || len(rels) == 0:
				id := nodes[rng.Intn(len(nodes))]
				ops = append(ops, sysOp{kind: 2, node: id, val: int64(rng.Intn(100))})
			default:
				i := rng.Intn(len(rels))
				ri := rels[i]
				ops = append(ops, sysOp{kind: 3, rel: ri.id, src: ri.src, tgt: ri.tgt})
				rels[i] = rels[len(rels)-1]
				rels = rels[:len(rels)-1]
			}
		}
		out = append(out, ops)
	}
	return out
}

// stageOp stages op in tx and returns the update the commit will stamp —
// the same constructor calls the Tx methods make, with TS still zero.
func stageOp(tx interface {
	CreateNodeWithID(model.NodeID, []string, model.Properties) error
	CreateRelWithID(model.RelID, model.NodeID, model.NodeID, string, model.Properties) error
	SetNodeProps(model.NodeID, model.Properties, []string) error
	DeleteRel(model.RelID) error
}, op sysOp) (model.Update, error) {
	switch op.kind {
	case 0:
		props := model.Properties{"n": model.IntValue(op.val)}
		return model.AddNode(0, op.node, []string{"P"}, props),
			tx.CreateNodeWithID(op.node, []string{"P"}, props)
	case 1:
		props := model.Properties{"w": model.IntValue(op.val)}
		return model.AddRel(0, op.rel, op.src, op.tgt, "KNOWS", props),
			tx.CreateRelWithID(op.rel, op.src, op.tgt, "KNOWS", props)
	case 2:
		props := model.Properties{"v": model.IntValue(op.val)}
		return model.UpdateNode(0, op.node, nil, nil, props, nil),
			tx.SetNodeProps(op.node, props, nil)
	default:
		return model.DeleteRel(0, op.rel, op.src, op.tgt), tx.DeleteRel(op.rel)
	}
}

func openCrashSys(fs vfs.FS) (*System, error) {
	return Open(Options{
		Dir:         "sys",
		SyncCommits: true,
		FS:          fs,
		Aion: aion.Options{
			SnapshotEveryOps: 1 << 30, // snapshot interplay is swept in timestore's harness
		},
	})
}

type sysDriveResult struct {
	// committed holds the update batch of every successful commit, as
	// captured by the after-commit listener (stamped with the commit ts,
	// which is the 1-based commit index).
	committed [][]model.Update
	// durable is len(committed) at the last successful system Flush. With
	// SyncCommits every successful commit is itself durable, so this is a
	// strictly weaker floor kept as a cross-check.
	durable int
	// inflight holds the staged updates of the transaction whose Commit
	// errored, if any: a torn log sync may still have persisted its record,
	// so recovery may legally include it (with ts len(committed)+1).
	inflight []model.Update
}

// driveSystem pushes the workload: every transaction commits (fsynced), and
// every 8th commit is followed by a full system Flush. The first commit
// error stops the run — the host's stores are fail-stop.
func driveSystem(s *System, txns [][]sysOp) sysDriveResult {
	var res sysDriveResult
	s.Host.OnCommit(func(ts model.Timestamp, us []model.Update) {
		res.committed = append(res.committed, us)
	})
	for i, ops := range txns {
		tx := s.Host.Begin()
		staged := make([]model.Update, 0, len(ops))
		abort := false
		for _, op := range ops {
			u, err := stageOp(tx, op)
			if err != nil {
				abort = true // staging touches the string table and can trip the fault
				break
			}
			staged = append(staged, u)
		}
		if abort {
			tx.Rollback()
			return res
		}
		if _, err := tx.Commit(); err != nil {
			res.inflight = staged
			return res
		}
		if (i+1)%8 == 0 {
			if err := s.Flush(); err == nil {
				res.durable = len(res.committed)
			}
		}
	}
	return res
}

// encodeSysU canonicalizes an update for content comparison through a
// throwaway codec, so updates decoded via the host's and Aion's separate
// string tables compare equal iff they denote the same change.
func encodeSysU(t *testing.T, codec *enc.Codec, u model.Update) []byte {
	t.Helper()
	b, err := codec.AppendUpdate(nil, u)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// verifySystem asserts the recovery contract on a reopened system.
func verifySystem(t *testing.T, k int, torn bool, s *System, res sysDriveResult) {
	t.Helper()
	cc := len(res.committed)
	m := int(s.Host.Clock())
	if m < cc || m > cc+1 {
		t.Fatalf("k=%d torn=%v: recovered %d commits, want between %d (fsynced) and %d (in-flight)", k, torn, m, cc, cc+1)
	}
	if m < res.durable {
		t.Fatalf("k=%d torn=%v: recovered %d commits below the %d-commit Flush floor", k, torn, m, res.durable)
	}
	if m == cc+1 && res.inflight == nil {
		t.Fatalf("k=%d torn=%v: recovered a commit beyond every attempted one", k, torn)
	}

	// Flatten the expected update stream: the captured commits, plus the
	// torn-but-persisted in-flight transaction when recovery kept it.
	var want []model.Update
	for _, us := range res.committed {
		want = append(want, us...)
	}
	if m == cc+1 {
		for _, u := range res.inflight {
			u.TS = model.Timestamp(m)
			want = append(want, u)
		}
	}

	// Host: the current graph must equal a replay of exactly those commits.
	ref := memgraph.New()
	for _, u := range want {
		if err := ref.Apply(u); err != nil {
			t.Fatalf("k=%d torn=%v: reference apply: %v", k, torn, err)
		}
	}
	hn, hr := s.Host.Counts()
	if hn != ref.NodeCount() || hr != ref.RelCount() {
		t.Fatalf("k=%d torn=%v: host recovered %d nodes/%d rels, want %d/%d",
			k, torn, hn, hr, ref.NodeCount(), ref.RelCount())
	}

	// Aion: reconciliation must have brought it to exactly the host's state.
	if err := s.Aion.WaitSync(); err != nil {
		t.Fatalf("k=%d torn=%v: aion cascade after reopen: %v", k, torn, err)
	}
	if m > 0 {
		if got := s.Aion.LatestTimestamp(); got != model.Timestamp(m) {
			t.Fatalf("k=%d torn=%v: aion at ts %d, host at %d", k, torn, got, m)
		}
	}
	rec, err := s.Aion.TimeStore().GetDiffContext(context.Background(), 0, model.Timestamp(m)+1)
	if err != nil {
		t.Fatalf("k=%d torn=%v: aion GetDiff: %v", k, torn, err)
	}
	if len(rec) != len(want) {
		t.Fatalf("k=%d torn=%v: aion recovered %d updates, want %d", k, torn, len(rec), len(want))
	}
	cmp := enc.NewCodec(strstore.NewMem())
	for i, u := range rec {
		if !bytes.Equal(encodeSysU(t, cmp, want[i]), encodeSysU(t, cmp, u)) {
			t.Fatalf("k=%d torn=%v: aion update %d = %v, want %v", k, torn, i, u, want[i])
		}
	}
	if m > 0 {
		if got := s.Aion.LineageStore().AppliedThrough(); got != model.Timestamp(m) {
			t.Fatalf("k=%d torn=%v: lineage applied through %d, want %d", k, torn, got, m)
		}
		g, err := s.Aion.TimeStore().GetGraphContext(context.Background(), model.Timestamp(m))
		if err != nil {
			t.Fatalf("k=%d torn=%v: aion GetGraph: %v", k, torn, err)
		}
		if g.NodeCount() != hn || g.RelCount() != hr {
			t.Fatalf("k=%d torn=%v: aion graph %d nodes/%d rels, host %d/%d",
				k, torn, g.NodeCount(), g.RelCount(), hn, hr)
		}
	}
}

func runSysCrashCase(t *testing.T, txns [][]sysOp, k int, torn bool) {
	t.Helper()
	fs := vfstest.NewFaultFS()
	fs.SetTornSync(torn)
	fs.SetFailAfter(int64(k))
	var res sysDriveResult
	s, err := openCrashSys(fs)
	if err == nil {
		res = driveSystem(s, txns)
		fs.Crash() // power cut FIRST: nothing Close still flushes may count as durable
		_ = s.Close()
	} else {
		// The injected fault killed Open itself: nothing is durable.
		fs.Crash()
	}
	s2, err := openCrashSys(fs)
	if err != nil {
		t.Fatalf("k=%d torn=%v: reopen after crash failed: %v", k, torn, err)
	}
	verifySystem(t, k, torn, s2, res)
	if err := s2.Close(); err != nil {
		t.Fatalf("k=%d torn=%v: clean close after recovery: %v", k, torn, err)
	}
}

// TestTornCommitIsAllOrNothing: the power fails in the middle of the fsync
// that would make a six-update commit durable in the TimeStore's log, after
// the host's log made it durable. Half the commit's bytes reach the disk; the
// reopened TimeStore holds none of its updates, and system.Open reconciles
// the commit whole from the host's log.
func TestTornCommitIsAllOrNothing(t *testing.T) {
	fs := vfstest.NewFaultFS()
	s, err := openCrashSys(fs)
	if err != nil {
		t.Fatal(err)
	}
	var commits [][]model.Update
	s.Host.OnCommit(func(_ model.Timestamp, us []model.Update) { commits = append(commits, us) })
	commit := func(first, n int) {
		t.Helper()
		tx := s.Host.Begin()
		for i := first; i < first+n; i++ {
			if _, err := stageOp(tx, sysOp{kind: 0, node: model.NodeID(i), val: int64(i)}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		commit(1+2*i, 2)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	const log = "sys/aion/timestore/p-1/updates.log"
	synced, err := fs.Stat(log)
	if err != nil {
		t.Fatal(err)
	}
	commit(11, 6) // interns nothing new: the log's fsync is the next mutating operation
	if err := s.Aion.WaitSync(); err != nil {
		t.Fatal(err)
	}
	written, err := fs.Stat(log)
	if err != nil {
		t.Fatal(err)
	}
	fs.SetTornSync(true)
	fs.SetFailAfter(fs.Ops() + 1)
	if err := s.Aion.TimeStore().Flush(); err == nil {
		t.Fatal("the TimeStore's log synced over a failing disk")
	}
	fs.Crash()
	_ = s.Close()
	if torn, err := fs.Stat(log); err != nil || torn <= synced || torn >= written {
		t.Fatalf("the log holds %d bytes after the crash (%v), want a part of the commit's %d past %d", torn, err, written-synced, synced)
	}

	strs, err := strstore.OpenFS(fs, "sys/aion/strings.db")
	if err != nil {
		t.Fatal(err)
	}
	ts, err := timestore.Open(enc.NewCodec(strs), timestore.Options{Dir: "sys/aion/timestore", FS: fs, SnapshotEveryOps: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if got := ts.Stats().Updates; got != 10 {
		t.Errorf("the TimeStore recovered %d updates, want the 10 before the torn commit and none of its 6", got)
	}
	if err := errors.Join(ts.Close(), strs.Close()); err != nil {
		t.Fatal(err)
	}

	s, err = openCrashSys(fs)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rec, err := s.Aion.TimeStore().GetDiffContext(context.Background(), 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	var want []model.Update
	for _, us := range commits {
		want = append(want, us...)
	}
	cmp := enc.NewCodec(strstore.NewMem())
	if len(rec) != len(want) || s.Aion.LatestTimestamp() != 6 {
		t.Fatalf("reconciled to %d updates through %d, want %d through 6", len(rec), s.Aion.LatestTimestamp(), len(want))
	}
	for i, u := range rec {
		if !bytes.Equal(encodeSysU(t, cmp, want[i]), encodeSysU(t, cmp, u)) {
			t.Fatalf("reconciled update %d = %v, want %v", i, u, want[i])
		}
	}
}

// TestCrashSweepSystem is the full combined sweep: one fault-free run
// measures the workload's mutating-op count N, then every fault index
// 1..N is crashed, in both discard and torn-fsync modes.
func TestCrashSweepSystem(t *testing.T) {
	txns := genTxns(80)
	total := 0
	for _, ops := range txns {
		total += len(ops)
	}
	if total < 200 {
		t.Fatalf("workload has only %d updates, want >= 200", total)
	}
	fs := vfstest.NewFaultFS()
	s, err := openCrashSys(fs)
	if err != nil {
		t.Fatal(err)
	}
	res := driveSystem(s, txns)
	if len(res.committed) != len(txns) {
		t.Fatalf("fault-free run committed %d/%d transactions", len(res.committed), len(txns))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	n := int(fs.Ops())
	t.Logf("sweeping %d fault indexes × 2 modes over %d transactions (%d updates)", n, len(txns), total)
	for _, torn := range []bool{false, true} {
		for k := 1; k <= n; k++ {
			runSysCrashCase(t, txns, k, torn)
		}
	}
}
