package timestore

// Crash-recovery sweep for the TimeStore, in the style of SQLite's
// torn-write tests: a deterministic workload runs against a FaultFS, the
// filesystem fails at every mutating-operation index k = 1..N (plain
// fail-stop and torn-fsync modes), the "machine" crashes — discarding all
// unsynced bytes — and the store is reopened. Recovery must always produce
// exactly a prefix of the issued update stream: at least everything covered
// by the last successful Flush, never anything past the last accepted
// append, never a gap, a reorder, or a corrupted record.

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"aion/internal/enc"
	"aion/internal/memgraph"
	"aion/internal/model"
	"aion/internal/strstore"
	"aion/internal/vfs"
)

// genWorkload builds a deterministic, valid update stream: node/rel
// inserts, property updates, rel deletes, with occasionally repeated
// timestamps (exercising per-timestamp sequence numbers).
func genWorkload(n int) []model.Update {
	rng := rand.New(rand.NewSource(42))
	type relInfo struct {
		id       model.RelID
		src, tgt model.NodeID
	}
	var (
		us       []model.Update
		nodes    []model.NodeID
		rels     []relInfo
		nextNode model.NodeID = 1
		nextRel  model.RelID  = 1
		ts       model.Timestamp
	)
	labels := []string{"Person", "City", "Org"}
	ts = 1
	for len(us) < n {
		ts += model.Timestamp(rng.Intn(2))
		switch r := rng.Intn(10); {
		case r < 4 || len(nodes) < 2:
			id := nextNode
			nextNode++
			us = append(us, model.AddNode(ts, id, []string{labels[rng.Intn(len(labels))]},
				model.Properties{"n": model.IntValue(int64(id))}))
			nodes = append(nodes, id)
		case r < 6:
			i := rng.Intn(len(nodes))
			src, tgt := nodes[i], nodes[(i+1)%len(nodes)]
			id := nextRel
			nextRel++
			us = append(us, model.AddRel(ts, id, src, tgt, "KNOWS",
				model.Properties{"w": model.IntValue(int64(id))}))
			rels = append(rels, relInfo{id: id, src: src, tgt: tgt})
		case r < 8:
			id := nodes[rng.Intn(len(nodes))]
			us = append(us, model.UpdateNode(ts, id, nil, nil,
				model.Properties{"v": model.IntValue(int64(rng.Intn(100)))}, nil))
		case r < 9 && len(rels) > 0:
			ri := rels[rng.Intn(len(rels))]
			us = append(us, model.UpdateRel(ts, ri.id, ri.src, ri.tgt,
				model.Properties{"w": model.IntValue(int64(rng.Intn(100)))}, nil))
		default:
			if len(rels) == 0 {
				continue
			}
			i := rng.Intn(len(rels))
			ri := rels[i]
			us = append(us, model.DeleteRel(ts, ri.id, ri.src, ri.tgt))
			rels[i] = rels[len(rels)-1]
			rels = rels[:len(rels)-1]
		}
	}
	return us
}

func openCrashTS(fs vfs.FS, codec *enc.Codec) (*Store, error) {
	return Open(codec, Options{
		Dir:              "ts",
		SnapshotEveryOps: 1 << 30, // policy off: the driver snapshots eagerly for determinism
		ParallelIO:       1,
		FS:               fs,
	})
}

// reapWorker shuts down the idle background snapshot worker of a store
// whose filesystem has crashed (Close would fail on the stale handles).
func reapWorker(st *Store) {
	st.snaps.close()
	<-st.workerDone
}

type driveResult struct {
	// attempted is how many updates the store accepted (appends are
	// fail-stop, so this is always a prefix length of the workload).
	attempted int
	// durable is the accepted count as of the last successful Flush: the
	// floor of what recovery must reproduce.
	durable int
}

// driveStore pushes the workload: every update is appended, every 10th is
// followed by a Flush (the sync point), every 60th by an eager snapshot, and
// the first timestamp boundary 20 and 40 updates after that by a policy
// snapshot — a delta on the element before it — so the sweep also crashes
// inside delta writes and recovers chains whose newest element is one.
// Errors stop the appends (the stores are fail-stop) but are not fatal —
// they are exactly the states the sweep wants to leave behind.
func driveStore(st *Store, us []model.Update) driveResult {
	var res driveResult
	policyDue := false
	for i, u := range us {
		if err := st.Append(u); err != nil {
			break
		}
		res.attempted = i + 1
		policyDue = policyDue || (i+1)%60 == 20 || (i+1)%60 == 40
		if policyDue && (i+1 == len(us) || us[i+1].TS > u.TS) {
			policyDue = false
			_ = policySnapshot(st)
		}
		if (i+1)%10 == 0 {
			if err := st.Flush(); err == nil {
				res.durable = res.attempted
			}
		}
		if (i+1)%60 == 0 {
			_ = st.CreateSnapshot() // snapshot loss is tolerable; log covers it
		}
	}
	return res
}

func encodeU(t *testing.T, codec *enc.Codec, u model.Update) []byte {
	t.Helper()
	b, err := codec.AppendUpdate(nil, u)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// verifyRecovered asserts the recovery contract: the reopened store holds
// us[:m] for some durable <= m <= attempted, byte-for-byte, and its latest
// in-memory graph equals replaying that prefix.
func verifyRecovered(t *testing.T, k int, torn bool, codec *enc.Codec, st *Store, us []model.Update, res driveResult) {
	t.Helper()
	maxTS := us[len(us)-1].TS
	rec, err := st.GetDiff(0, maxTS+1)
	if err != nil {
		t.Fatalf("k=%d torn=%v: GetDiff after recovery: %v", k, torn, err)
	}
	m := len(rec)
	if m < res.durable || m > res.attempted {
		t.Fatalf("k=%d torn=%v: recovered %d updates, want between %d (durable) and %d (accepted)",
			k, torn, m, res.durable, res.attempted)
	}
	for i, u := range rec {
		if !bytes.Equal(encodeU(t, codec, us[i]), encodeU(t, codec, u)) {
			t.Fatalf("k=%d torn=%v: recovered update %d = %v, want %v", k, torn, i, u, us[i])
		}
	}
	ref := memgraph.New()
	for _, u := range us[:m] {
		if err := ref.Apply(u); err != nil {
			t.Fatalf("k=%d torn=%v: reference apply: %v", k, torn, err)
		}
	}
	got := latestOf(t, st)
	if got.NodeCount() != ref.NodeCount() || got.RelCount() != ref.RelCount() {
		t.Fatalf("k=%d torn=%v: recovered graph %d nodes/%d rels, want %d/%d",
			k, torn, got.NodeCount(), got.RelCount(), ref.NodeCount(), ref.RelCount())
	}
	if m > 0 && st.LatestTimestamp() != us[m-1].TS {
		t.Fatalf("k=%d torn=%v: latest ts %d, want %d", k, torn, st.LatestTimestamp(), us[m-1].TS)
	}
	// A delta survives only right behind its base; an orphan is dropped and
	// the log covers what it held.
	for i, e := range st.active().elems() {
		if e.kind == enc.DeltaDiff && (i == 0 || e.base != st.active().elems()[i-1].pos) {
			t.Fatalf("k=%d torn=%v: recovered chain keeps delta %s without its base", k, torn, e.path)
		}
	}
}

func runCrashCase(t *testing.T, us []model.Update, k int, torn bool) {
	t.Helper()
	codec := enc.NewCodec(strstore.NewMem())
	fs := vfs.NewFaultFS()
	fs.SetTornSync(torn)
	fs.SetFailAfter(int64(k))
	var res driveResult
	st, err := openCrashTS(fs, codec)
	if err == nil {
		res = driveStore(st, us)
		reapWorker(st)
	} // an open that died on the injected fault left nothing durable: res stays zero
	fs.Crash()
	st2, err := openCrashTS(fs, codec)
	if err != nil {
		t.Fatalf("k=%d torn=%v: reopen after crash failed: %v", k, torn, err)
	}
	verifyRecovered(t, k, torn, codec, st2, us, res)
	reapWorker(st2)
}

// TestCrashSweepTimeStore is the full sweep: one fault-free run measures
// the workload's mutating-op count N, then every index 1..N is crashed,
// in both discard (clean power cut) and torn-fsync modes.
func TestCrashSweepTimeStore(t *testing.T) {
	us := genWorkload(240)
	codec := enc.NewCodec(strstore.NewMem())
	fs := vfs.NewFaultFS()
	st, err := openCrashTS(fs, codec)
	if err != nil {
		t.Fatal(err)
	}
	res := driveStore(st, us)
	if res.attempted != len(us) {
		t.Fatalf("fault-free run stopped after %d/%d updates", res.attempted, len(us))
	}
	if stats := st.Stats(); stats.DeltaSnapshots < 4 || stats.SnapshotErrors != 0 {
		t.Fatalf("fault-free run wrote %d deltas with %d snapshot errors, want at least 4 and none", stats.DeltaSnapshots, stats.SnapshotErrors)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	n := int(fs.Ops())
	if n < len(us) {
		t.Fatalf("workload produced only %d mutating ops", n)
	}
	t.Logf("sweeping %d fault indexes × 2 modes over a %d-update workload", n, len(us))
	for _, torn := range []bool{false, true} {
		for k := 1; k <= n; k++ {
			runCrashCase(t, us, k, torn)
		}
	}
}

// TestCrashMidSnapshotKeepsPreviousSnapshots is the satellite regression: a
// crash in the middle of writing a new snapshot must leave the previous
// snapshot set fully readable and the leftover *.dsnap.tmp cleaned up.
func TestCrashMidSnapshotKeepsPreviousSnapshots(t *testing.T) {
	us := genWorkload(120)
	codec := enc.NewCodec(strstore.NewMem())
	fs := vfs.NewFaultFS()
	st, err := openCrashTS(fs, codec)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range us[:60] {
		if err := st.Append(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := st.CreateSnapshot(); err != nil {
		t.Fatal(err)
	}
	firstSnapTS := st.LatestTimestamp()
	for _, u := range us[60:] {
		if err := st.Append(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	// Fail the tmp file's content write: ops are create(+1), write(+2).
	fs.SetFailAfter(fs.Ops() + 2)
	if err := st.CreateSnapshot(); err == nil {
		t.Fatal("snapshot with a failing write must error")
	}
	reapWorker(st)
	fs.Crash()

	st2, err := openCrashTS(fs, codec)
	if err != nil {
		t.Fatalf("reopen after mid-snapshot crash: %v", err)
	}
	defer reapWorker(st2)
	names, err := fs.ReadDir("ts/p-1")
	if err != nil {
		t.Fatal(err)
	}
	sawSnap := false
	for _, name := range names {
		if strings.HasSuffix(name, ".tmp") {
			t.Errorf("leftover tmp after recovery: %s", name)
		}
		if _, _, ok := parseChainName(name); ok {
			sawSnap = true
		}
	}
	if !sawSnap {
		t.Fatal("previous snapshot vanished")
	}
	// The old snapshot is still loadable and queries through it succeed.
	g, err := st2.GetGraph(firstSnapTS)
	if err != nil {
		t.Fatalf("GetGraph through the surviving snapshot: %v", err)
	}
	if g.NodeCount() == 0 {
		t.Error("snapshot-based graph is empty")
	}
	// All 120 updates were flushed before the crash, so recovery is total.
	rec, err := st2.GetDiff(0, us[len(us)-1].TS+1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec) != len(us) {
		t.Fatalf("recovered %d updates, want %d", len(rec), len(us))
	}
}
