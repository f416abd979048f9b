package system

// The LineageStore checkpoint's crash contract, as a two-generation sweep
// beside TestCrashSweepSystem (same workload, same FaultFS modes).
// Generation 1 runs the first half of the transactions and closes cleanly,
// publishing the checkpoint; generation 2 reopens — trusting it, so nothing
// is re-applied — and runs the second half. The fault lands at every
// mutating-operation index of generation 2 (its Open, its commits, its
// Close) and, in a second loop, at every index inside generation 1's Close.
// After the crash and a reopen the system must satisfy verifySystem, and the
// LineageStore — whether it resumed from a checkpoint or was rebuilt — must
// answer every history and neighbourhood read exactly like a LineageStore
// freshly built from the recovered log.

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"aion/internal/enc"
	"aion/internal/lineagestore"
	"aion/internal/model"
	"aion/internal/strstore"
	"aion/internal/vfs"
)

// lineageDigest renders every node's and relationship's full history and
// every node's neighbourhood history over [0, end), as read through ls, for
// the entities the update stream us names.
func lineageDigest(t *testing.T, label string, ls *lineagestore.Store, us []model.Update, end model.Timestamp) string {
	t.Helper()
	nodes, rels := map[model.NodeID]bool{}, map[model.RelID]bool{}
	for _, u := range us {
		if u.Kind.IsNodeOp() {
			nodes[u.NodeID] = true
		} else {
			rels[u.RelID] = true
		}
	}
	var b strings.Builder
	check := func(err error) {
		if err != nil {
			t.Fatalf("%s: lineage read: %v", label, err)
		}
	}
	nodeIDs := make([]model.NodeID, 0, len(nodes))
	for id := range nodes {
		nodeIDs = append(nodeIDs, id)
	}
	sort.Slice(nodeIDs, func(i, j int) bool { return nodeIDs[i] < nodeIDs[j] })
	for _, id := range nodeIDs {
		vs, err := ls.GetNode(id, 0, end)
		check(err)
		for _, n := range vs {
			fmt.Fprintf(&b, "n%v;", *n)
		}
		for _, d := range []model.Direction{model.Outgoing, model.Incoming} {
			hist, err := ls.GetRelationships(id, d, 0, end)
			check(err)
			lines := make([]string, len(hist))
			for i, versions := range hist {
				for _, r := range versions {
					lines[i] += fmt.Sprintf("%v,", *r)
				}
			}
			sort.Strings(lines)
			fmt.Fprintf(&b, "d%d%v;", d, lines)
		}
	}
	relIDs := make([]model.RelID, 0, len(rels))
	for id := range rels {
		relIDs = append(relIDs, id)
	}
	sort.Slice(relIDs, func(i, j int) bool { return relIDs[i] < relIDs[j] })
	for _, id := range relIDs {
		vs, err := ls.GetRelationship(id, 0, end)
		check(err)
		for _, r := range vs {
			fmt.Fprintf(&b, "r%v;", *r)
		}
	}
	return b.String()
}

// verifyLineage compares the reopened system's LineageStore with the
// reference path: a LineageStore built from nothing out of the log the
// TimeStore recovered.
func verifyLineage(t *testing.T, label string, s *System) {
	t.Helper()
	if err := s.Aion.WaitSync(); err != nil {
		t.Fatalf("%s: cascade after reopen: %v", label, err)
	}
	ts, ls := s.Aion.TimeStore(), s.Aion.LineageStore()
	end := ts.LatestTimestamp() + 1
	rec, err := ts.GetDiff(0, end)
	if err != nil {
		t.Fatalf("%s: GetDiff: %v", label, err)
	}
	if len(rec) > 0 && ls.AppliedThrough() != end-1 {
		t.Fatalf("%s: lineage applied through %d, TimeStore at %d", label, ls.AppliedThrough(), end-1)
	}
	if got := ls.Stats().Updates; got != uint64(len(rec)) {
		t.Fatalf("%s: lineage holds %d updates, the log %d", label, got, len(rec))
	}
	ref, err := lineagestore.Open(enc.NewCodec(strstore.NewMem()), lineagestore.Options{FS: vfs.NewFaultFS()})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if err := ref.ApplyBatch(rec); err != nil {
		t.Fatalf("%s: reference lineage: %v", label, err)
	}
	if got, want := lineageDigest(t, label, ls, rec, end), lineageDigest(t, label, ref, rec, end); got != want {
		t.Fatalf("%s: LineageStore reads differ from a LineageStore rebuilt from the recovered log\n got  %s\n want %s", label, got, want)
	}
}

// generation1 runs the first half on a fresh FaultFS and stops before Close,
// returning the open system, its drive result and the filesystem.
func generation1(t *testing.T, txns [][]sysOp) (*vfs.FaultFS, *System, sysDriveResult) {
	t.Helper()
	fs := vfs.NewFaultFS()
	s, err := openCrashSys(fs)
	if err != nil {
		t.Fatal(err)
	}
	res := driveSystem(s, txns)
	if len(res.committed) != len(txns) {
		t.Fatalf("generation 1 committed %d/%d transactions", len(res.committed), len(txns))
	}
	if err := s.Aion.WaitSync(); err != nil {
		t.Fatal(err)
	}
	return fs, s, res
}

// reopenAndVerify reopens after the crash and checks the whole contract.
func reopenAndVerify(t *testing.T, label string, fs *vfs.FaultFS, res sysDriveResult) *System {
	t.Helper()
	s, err := openCrashSys(fs)
	if err != nil {
		t.Fatalf("%s: reopen after crash failed: %v", label, err)
	}
	verifySystem(t, 0, false, s, res)
	verifyLineage(t, label, s)
	return s
}

func TestCrashSweepRestart(t *testing.T) {
	txns := genTxns(80)
	first, second := txns[:40], txns[40:]

	// The fault-free run measures both sweep ranges and pins the trusted
	// path: a reopen after a clean Close re-applies nothing.
	fs, s, res1 := generation1(t, first)
	closeFrom := fs.Ops()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	gen2From := fs.Ops()
	s, err := openCrashSys(fs)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Aion.LineageStore().Stats(); st.CaughtUp != 0 || st.Updates == 0 {
		t.Fatalf("reopen after a clean close: lineage %+v, want its updates back with none re-applied", st)
	}
	res2 := driveSystem(s, second)
	if len(res2.committed) != len(second) {
		t.Fatalf("generation 2 committed %d/%d transactions", len(res2.committed), len(second))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	gen2To := fs.Ops()
	s = reopenAndVerify(t, "fault-free", fs, sysDriveResult{
		committed: append(append([][]model.Update{}, res1.committed...), res2.committed...)})
	if st := s.Aion.LineageStore().Stats(); st.CaughtUp != 0 {
		t.Fatalf("second clean reopen re-applied %d updates", st.CaughtUp)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	t.Logf("sweeping %d fault indexes of generation 2 and %d inside generation 1's Close, × 2 modes",
		gen2To-gen2From, gen2From-closeFrom)

	for _, torn := range []bool{false, true} {
		for k := gen2From + 1; k <= gen2To; k++ {
			label := fmt.Sprintf("gen2 k=%d torn=%v", k-gen2From, torn)
			fs, s, res := generation1(t, first)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			res.durable = len(first)
			fs.SetTornSync(torn)
			fs.SetFailAfter(k)
			if s, err := openCrashSys(fs); err == nil {
				r := driveSystem(s, second)
				res.committed = append(res.committed, r.committed...)
				res.durable, res.inflight = len(first)+r.durable, r.inflight
				_ = s.Close() // under the fault: its flush and publish are swept too
			}
			fs.Crash()
			s = reopenAndVerify(t, label, fs, res)
			if err := s.Close(); err != nil {
				t.Fatalf("%s: clean close after recovery: %v", label, err)
			}
		}
		for k := closeFrom + 1; k <= gen2From; k++ {
			label := fmt.Sprintf("gen1 close k=%d torn=%v", k-closeFrom, torn)
			fs, s, res := generation1(t, first)
			fs.SetTornSync(torn)
			fs.SetFailAfter(k)
			_ = s.Close()
			fs.Crash()
			s = reopenAndVerify(t, label, fs, res)
			// The recovered store serves generation 2 like any other.
			r := driveSystem(s, second)
			if len(r.committed) != len(second) {
				t.Fatalf("%s: generation 2 committed %d/%d transactions", label, len(r.committed), len(second))
			}
			if err := s.Close(); err != nil {
				t.Fatalf("%s: clean close after recovery: %v", label, err)
			}
		}
	}
}
