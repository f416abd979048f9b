package system

// One resident current graph: the host's committed graph is the only one, and
// the TimeStore borrows it. These tests pin that every graph a policy snapshot
// caches is made of the host's own entity objects, that a commit applies once
// and copies nothing, when the host's graph may and may not be taken, and that
// none of it changes what a query or a snapshot file can observe.

import (
	"cmp"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"aion/internal/aion"
	"aion/internal/hostdb"
	"aion/internal/memgraph"
	"aion/internal/model"
	"aion/internal/tstest"
	"aion/internal/vfs"
)

// residentSys is one system under TestOneResidentGraph plus every commit its
// host has ever taken, across reopens, in commit order: commits[ts-1] is the
// transaction stamped ts.
type residentSys struct {
	t       *testing.T
	fs      *vfs.FaultFS
	replica bool
	seal    int // aion.Options.PartitionEvery
	*System
	mu      sync.Mutex
	commits [][]model.Update
	// hostAt[ts] is a handle on the host's committed graph as of commit ts, for
	// every ts after born — the clock this process life opened at — that ended
	// a group-commit round or a shipment: the only states a policy snapshot
	// may be of.
	born   model.Timestamp
	hostAt map[model.Timestamp]*memgraph.Graph
}

// residentSnapshotEvery is the operation snapshot policy of these stores:
// small enough that policy snapshots fire throughout every case.
const residentSnapshotEvery = 48

func (r *residentSys) open() {
	r.t.Helper()
	s, err := Open(Options{Dir: "sys", SyncCommits: true, FS: r.fs, Replica: r.replica,
		Aion: aion.Options{SnapshotEveryOps: residentSnapshotEvery, PartitionEvery: r.seal, ParallelIO: 1}})
	if err != nil {
		r.t.Fatal(err)
	}
	r.System = s
	r.born, r.hostAt = s.Host.Clock(), map[model.Timestamp]*memgraph.Graph{}
	s.Host.OnCommit(func(ts model.Timestamp, us []model.Update) {
		r.mu.Lock()
		defer r.mu.Unlock()
		if int(ts) != len(r.commits)+1 {
			r.t.Errorf("listener saw commit %d after %d commits", ts, len(r.commits))
		}
		r.commits = append(r.commits, us)
		if g, clock, _ := s.Host.Committed(); clock == ts {
			r.hostAt[ts] = g
		}
	})
}

func newResidentSys(t *testing.T, replica bool) *residentSys {
	r := &residentSys{t: t, fs: vfs.NewFaultFS(), replica: replica}
	r.open()
	t.Cleanup(func() { r.Close() })
	return r
}

// commit runs one transaction of n operations from a deterministic mix that
// creates nodes and relationships, sets properties and deletes
// relationships, so every kind of entity replacement is exercised.
func (r *residentSys) commit(seed, n int) {
	r.t.Helper()
	if _, err := r.Host.Run(func(tx *hostdb.Tx) error { return stageMix(tx, r.Host, seed, n) }); err != nil {
		r.t.Fatal(err)
	}
}

// stageMix stages n operations chosen by seed against whatever the host
// currently holds.
func stageMix(tx *hostdb.Tx, host *hostdb.DB, seed, n int) error {
	nodes, _ := host.Counts()
	for i := 0; i < n; i++ {
		k := seed*7 + i
		switch {
		case nodes < 4 || k%5 == 0:
			if _, err := tx.CreateNode([]string{"P"}, model.Properties{"n": model.IntValue(int64(k))}); err != nil {
				return err
			}
		case k%5 == 1 || k%5 == 2:
			a, b := model.NodeID(k%nodes), model.NodeID((k/3)%nodes)
			if tx.Node(a) == nil || tx.Node(b) == nil {
				continue
			}
			if _, err := tx.CreateRel(a, b, "KNOWS", model.Properties{"w": model.StringValue(fmt.Sprint("w", k))}); err != nil {
				return err
			}
		case k%5 == 3:
			id := model.NodeID(k % nodes)
			if tx.Node(id) == nil {
				continue
			}
			if err := tx.SetNodeProps(id, model.Properties{"v": model.IntValue(int64(k))}, nil); err != nil {
				return err
			}
		default:
			rels := tx.IncidentRels(model.NodeID(k % nodes))
			if len(rels) == 0 {
				continue
			}
			if err := tx.DeleteRel(rels[0]); err != nil {
				return err
			}
		}
	}
	return nil
}

// shipper returns the function that ships to f's host, as one shipment,
// everything p's host has made durable since the last call.
func shipper(t *testing.T, p, f *residentSys) func() {
	var strOff, txnOff int64
	return func() {
		t.Helper()
		_, txnDurable := p.Host.DurableExtents()
		str, err := p.Host.ReadStringsRaw(strOff, 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		frames, next, err := p.Host.TxnFrames(txnOff, txnDurable, 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Host.ApplyShipment(str, frames); err != nil {
			t.Fatal(err)
		}
		strOff, txnOff = strOff+int64(len(str)), next
	}
}

// unshared counts, over the graphs the GraphStore holds at the policy
// elements' timestamps, the entities whose object is not the one the host's
// committed graph held at that commit. Graphs of an earlier process life are
// left out: their host is gone.
func (r *residentSys) unshared() (unshared, total, graphs int) {
	r.t.Helper()
	r.Aion.TimeStore().WaitSnapshots()
	gs := r.Aion.TimeStore().GraphStore()
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.chainElements() {
		g, cached := gs.Get(e.at)
		if !cached || e.at <= r.born {
			continue
		}
		host := r.hostAt[e.at]
		if host == nil {
			r.t.Errorf("the graph cached at %d is of a state inside a group-commit round", e.at)
			continue
		}
		graphs++
		g.ForEachNode(func(n *model.Node) bool {
			total++
			if host.Node(n.ID) != n {
				unshared++
			}
			return true
		})
		g.ForEachRel(func(rel *model.Rel) bool {
			total++
			if host.Rel(rel.ID) != rel {
				unshared++
			}
			return true
		})
	}
	return unshared, total, graphs
}

// wantOneGraph asserts every cached policy snapshot holds the host's objects
// and nothing else.
func (r *residentSys) wantOneGraph(label string) {
	r.t.Helper()
	if un, total, graphs := r.unshared(); un != 0 || graphs == 0 {
		r.t.Errorf("%s: %d of the %d entities in %d cached policy snapshots are not the host's own objects", label, un, total, graphs)
	}
}

// verify drains the background workers and checks what sharing must never
// change: Aion has every commit, every policy snapshot file is placed at a
// commit boundary (its position is the last update of a commit that exists),
// GetGraph at every commit timestamp equals a replay of the commits from
// zero, and the TimeStore never found the host diverged.
func (r *residentSys) verify(label string) {
	r.t.Helper()
	if err := r.Aion.WaitSync(); err != nil {
		r.t.Fatalf("%s: %v", label, err)
	}
	ts := r.Aion.TimeStore()
	ts.WaitSnapshots()
	r.mu.Lock()
	commits := r.commits
	r.mu.Unlock()
	if got := ts.LatestTimestamp(); int(got) != len(commits) || int(r.Host.Clock()) != len(commits) {
		r.t.Fatalf("%s: aion at %d, host at %d, %d commits taken", label, got, r.Host.Clock(), len(commits))
	}
	st := ts.Stats()
	if st.LatestMismatches != 0 || st.SnapshotErrors != 0 {
		r.t.Errorf("%s: %d pulls refused as diverged, %d snapshot errors (%s)", label, st.LatestMismatches, st.SnapshotErrors, st.LastSnapshotError)
	}
	elems := r.chainElements()
	for _, e := range elems {
		// Policy elements are fulls and, between them, deltas: either kind
		// must sit at the end of a commit.
		if e.at < 1 || int(e.at) > len(commits) || e.seq != len(commits[e.at-1])-1 {
			r.t.Errorf("%s: snapshot %s is placed at (%d, %d), which is not the end of a commit", label, e.name, e.at, e.seq)
		}
	}
	if len(commits) > 0 && len(elems) == 0 && st.Updates > 2*residentSnapshotEvery {
		r.t.Errorf("%s: no policy snapshot after %d updates", label, st.Updates)
	}
	if len(elems) >= 2 && st.DeltaSnapshots == 0 {
		r.t.Errorf("%s: %d policy snapshots and no delta among them", label, len(elems))
	}
	cmp, ref := tstest.NewComparator(), memgraph.New()
	for i, us := range commits {
		if err := ref.ApplyAll(us); err != nil {
			r.t.Fatalf("%s: reference replay: %v", label, err)
		}
		g, err := ts.GetGraph(model.Timestamp(i + 1))
		if err != nil {
			r.t.Fatalf("%s: GetGraph(%d): %v", label, i+1, err)
		}
		if cmp.GraphDigest(r.t, g) != cmp.GraphDigest(r.t, ref) {
			r.t.Fatalf("%s: GetGraph(%d) differs from a replay from zero", label, i+1)
		}
	}
	if cmp.GraphDigest(r.t, r.Host.Current()) != cmp.GraphDigest(r.t, ref) {
		r.t.Fatalf("%s: the host's graph differs from a replay from zero", label)
	}
}

func TestOneResidentGraph(t *testing.T) {
	t.Run("single commits", func(t *testing.T) {
		r := newResidentSys(t, false)
		opened := r.Aion.TimeStore().Stats().LatestPulls
		for i := 0; i < 300; i++ {
			r.commit(i, 1+i%4)
		}
		r.wantOneGraph("single commits")
		// One pull a snapshot: each was due at the end of a commit that was its
		// own round (the last may still wait for its boundary), and nothing
		// else needed a graph.
		st := r.Aion.TimeStore().Stats()
		if elems, pulls := len(r.chainElements()), int(st.LatestPulls-opened); elems < 5 || pulls < elems || pulls > elems+1 || st.SnapshotsOverdue != 0 {
			t.Errorf("%d policy snapshots from %d pulls, %d intervals overdue", elems, pulls, st.SnapshotsOverdue)
		}
		r.verify("single commits")
	})

	t.Run("clean reopen loads nothing", func(t *testing.T) {
		r := newResidentSys(t, false)
		for i := 0; i < 60; i++ {
			r.commit(i, 4)
		}
		r.verify("loaded")
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		r.open()
		// The planner's counters were seeded from the host's graph: the logs
		// agree, so no element was read to build one.
		if st := r.Aion.TimeStore().Stats(); st.LoadedEntities != 0 || st.LatestPulls != 1 {
			t.Errorf("clean reopen: %d entity versions loaded, %d pulls; want 0 and 1", st.LoadedEntities, st.LatestPulls)
		}
		for i := 60; i < 120; i++ {
			r.commit(i, 4)
		}
		r.wantOneGraph("clean reopen")
		r.verify("clean reopen")
	})

	t.Run("crash-lagged reopen reconciles", func(t *testing.T) {
		r := newResidentSys(t, false)
		for i := 0; i < 40; i++ {
			r.commit(i, 4)
		}
		if err := r.Flush(); err != nil {
			t.Fatal(err)
		}
		for i := 40; i < 55; i++ {
			r.commit(i, 4) // durable in the host (SyncCommits), unsynced in Aion
		}
		r.fs.Crash()
		_ = r.Close()
		r.open()
		// The TimeStore's log ended before the host's: the host's graph was
		// refused as the log's end — ahead, not diverged — and reconcile fed the
		// rest, which verify checks.
		if got, want := r.Aion.LatestTimestamp(), r.Host.Clock(); got != want {
			t.Fatalf("after reconcile aion is at %d, the host at %d", got, want)
		}
		for i := 55; i < 110; i++ {
			r.commit(i, 4)
		}
		r.wantOneGraph("crash-lagged reopen")
		r.verify("crash-lagged reopen")
	})

	t.Run("concurrent committers, snapshots and readers", func(t *testing.T) {
		r := newResidentSys(t, false)
		for i := 0; i < 10; i++ {
			r.commit(i, 8)
		}
		var stop atomic.Bool
		var readers sync.WaitGroup
		for i := 0; i < 2; i++ {
			readers.Add(1)
			go func() {
				defer readers.Done()
				for !stop.Load() {
					if ts := r.Aion.LatestTimestamp(); ts > 0 {
						if _, err := r.Aion.TimeStore().GetGraph(ts - ts%3); err != nil {
							t.Error(err)
							return
						}
					}
					runtime.Gosched()
				}
			}()
		}
		var wg sync.WaitGroup
		for w := 0; w < 16; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 25; i++ {
					// Creation-only transactions: concurrent committers must
					// not conflict here (the next case is the one that does).
					_, err := r.Host.Run(func(tx *hostdb.Tx) error {
						a, err := tx.CreateNode([]string{"C"}, model.Properties{"w": model.IntValue(int64(w*100 + i))})
						if err != nil {
							return err
						}
						_, err = tx.CreateRel(a, model.NodeID(w%4), "KNOWS", nil)
						return err
					})
					if err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		stop.Store(true)
		readers.Wait()
		if t.Failed() {
			return
		}
		// 800 updates at a snapshot every 48: whatever the rounds were, a due
		// snapshot waited at most for its round's last call.
		if st := r.Aion.TimeStore().Stats(); st.Snapshots < 4 || st.SnapshotsOverdue != 0 {
			t.Errorf("%d policy snapshots during 400 concurrent commits, %d intervals overdue", st.Snapshots, st.SnapshotsOverdue)
		}
		r.wantOneGraph("concurrent committers")
		r.verify("concurrent committers")
	})

	t.Run("conflict-aborted transactions", func(t *testing.T) {
		r := newResidentSys(t, false)
		for i := 0; i < 10; i++ {
			r.commit(i, 8)
		}
		// Pairs race to delete the same relationship: one of each pair aborts
		// after its first update (a node it created) was applied, inside group-
		// commit rounds whose other members commit — and a snapshot falls due
		// every few rounds.
		aborted := 0
		for round := 0; round < 40; round++ {
			var victim model.RelID
			if _, err := r.Host.Run(func(tx *hostdb.Tx) error {
				var err error
				victim, err = tx.CreateRel(0, 1, "DOOMED", nil)
				return err
			}); err != nil {
				t.Fatal(err)
			}
			txs := [2]*hostdb.Tx{r.Host.Begin(), r.Host.Begin()}
			for _, tx := range txs {
				if _, err := tx.CreateNode([]string{"Racer"}, nil); err != nil {
					t.Fatal(err)
				}
				if err := tx.DeleteRel(victim); err != nil {
					t.Fatal(err)
				}
			}
			var wg sync.WaitGroup
			var failed atomic.Int32
			for _, tx := range txs {
				wg.Add(1)
				go func(tx *hostdb.Tx) {
					defer wg.Done()
					if _, err := tx.Commit(); err != nil {
						failed.Add(1)
					}
				}(tx)
			}
			wg.Wait()
			if failed.Load() != 1 {
				t.Fatalf("round %d: %d of 2 racing deletes aborted, want 1", round, failed.Load())
			}
			aborted++
			if g, clock, _ := r.Host.Committed(); g.Timestamp() != clock {
				t.Fatalf("round %d: host graph stamped %d at clock %d", round, g.Timestamp(), clock)
			}
		}
		if got := r.Host.Stats().Conflicts; int(got) != aborted {
			t.Errorf("%d conflicts counted, %d provoked", got, aborted)
		}
		r.wantOneGraph("after aborts")
		r.verify("conflict-aborted transactions")
	})

	t.Run("follower fed by ApplyShipment", func(t *testing.T) {
		p, f := newResidentSys(t, false), newResidentSys(t, true)
		ship := shipper(t, p, f)
		for i := 0; i < 30; i++ {
			p.commit(i, 6)
		}
		// One shipment of 30 commits, several policy intervals long: only its
		// last listener call finds the host where the log ends, so the follower
		// takes one snapshot, there, where the primary took one per interval.
		ship()
		f.Aion.TimeStore().WaitSnapshots()
		if elems := f.chainElements(); len(elems) != 0 {
			t.Errorf("first shipment: the follower placed %d snapshots inside it", len(elems))
		}
		p.commit(30, 6)
		ship()
		f.Aion.TimeStore().WaitSnapshots()
		if elems := f.chainElements(); len(elems) != 1 || elems[0].at != 30 {
			t.Errorf("after the shipment that followed: the follower's policy elements are %v, want one at commit 30", elems)
		}
		for i := 31; i < 90; i++ {
			p.commit(i, 6)
			if i%7 == 0 {
				ship()
			}
		}
		ship()
		f.wantOneGraph("follower")
		f.verify("follower")
		p.wantOneGraph("primary")
		p.verify("primary")
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		f.open()
		f.verify("follower reopened")
	})

	t.Run("a commit applies once and copies no vector", func(t *testing.T) {
		commits := 40000
		if testing.Short() {
			commits = 4000
		}
		const nodes, every = 20000, 8192
		s, err := Open(Options{Dir: "sys", FS: vfs.NewFaultFS(),
			Aion: aion.Options{SnapshotEveryOps: every, ParallelIO: 1, GraphStoreBytes: 1}})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if _, err := s.Host.Run(func(tx *hostdb.Tx) error {
			for i := 0; i < nodes; i++ {
				if _, err := tx.CreateNode([]string{"P"}, model.Properties{"v": model.IntValue(0)}); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		k := 0
		commit := func() {
			k++
			if _, err := s.Host.Run(func(tx *hostdb.Tx) error {
				return tx.SetNodeProps(model.NodeID(k*7919%nodes), model.Properties{"v": model.IntValue(int64(k))}, nil)
			}); err != nil {
				t.Fatal(err)
			}
		}
		ts := s.Aion.TimeStore()
		commit() // the boundary the bulk load's due snapshot was waiting for
		ts.WaitSnapshots()

		// A window with no snapshot due: nobody asks for the host's graph, so
		// nothing marks it shared and no commit copies its vectors — one copy
		// of the node vectors alone is 8 bytes a slot, a hundred times the
		// bound. What a commit does allocate — staging, two log records, the
		// one new node version, the cascade's copy of the batch — does not
		// depend on the graph's size.
		const window, commitBytes = 2000, 16 << 10
		var before, after runtime.MemStats
		pulls := ts.Stats().LatestPulls
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(window, commit)
		runtime.ReadMemStats(&after)
		if err := s.Aion.WaitSync(); err != nil {
			t.Fatal(err)
		}
		perCommit := float64(after.TotalAlloc-before.TotalAlloc) / (window + 1)
		t.Logf("a single-update commit allocates %.0f bytes in %.0f objects", perCommit, allocs)
		if got := ts.Stats().LatestPulls - pulls; got != 0 || perCommit > commitBytes || nodes*8 < 8*commitBytes {
			t.Errorf("%d pulls in a window with no snapshot due; %.0f bytes allocated per commit, over the bound of %d", got, perCommit, commitBytes)
		}

		// Over many policy intervals: one pull — paid by the host at its next
		// write — for each snapshot taken.
		from := ts.Stats()
		for i := 0; i < commits; i++ {
			commit()
		}
		ts.WaitSnapshots()
		st := ts.Stats()
		taken, pulled := st.Snapshots-from.Snapshots, int(st.LatestPulls-from.LatestPulls)
		if want := (window + 1 + commits) / every; taken != want || pulled != taken || st.LatestMismatches != 0 {
			t.Errorf("%d commits: %d policy snapshots (want %d) from %d pulls, %d mismatches", commits, taken, want, pulled, st.LatestMismatches)
		}

		// What a pull costs the committer: its next commit copies the vectors'
		// directories and the chunks it writes — a few KiB — where a copy of
		// the vectors themselves is 8 bytes a node slot, and 24 twice more.
		const pulledBytes = 64 << 10
		var worst uint64
		for round := 0; round < 16; round++ {
			pulled, _, _ := s.Host.Committed() // what a pull takes
			snaps := ts.Stats().Snapshots
			runtime.ReadMemStats(&before)
			commit()
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(pulled)
			if ts.WaitSnapshots(); ts.Stats().Snapshots != snaps {
				continue // the snapshot worker's allocations are not the commit's
			}
			worst = max(worst, after.TotalAlloc-before.TotalAlloc)
		}
		if worst > pulledBytes {
			t.Errorf("the commit after a pull allocates up to %d bytes, over the bound of %d: it copies the vectors", worst, pulledBytes)
		}
	})
}

// TestFailedIngestIsSticky: the TimeStore's disk fails under one commit while
// the host's is fine. The host has acknowledged the commit and the listener
// has nobody to tell, so Aion must remember: Err reports the failure, later
// commits are refused instead of being appended on top of the hole, the
// host's graph is not taken for a state past it, and a reopen repairs it from
// the host log.
func TestFailedIngestIsSticky(t *testing.T) {
	hostFS, aionFS := vfs.NewFaultFS(), vfs.NewFaultFS()
	opts := Options{Dir: "sys", SyncCommits: true, FS: hostFS,
		Aion: aion.Options{Dir: "aion", FS: aionFS, ParallelIO: 1}}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	commit := func(k int64) {
		t.Helper()
		if _, err := s.Host.Run(func(tx *hostdb.Tx) error {
			_, err := tx.CreateNode([]string{"P"}, model.Properties{"k": model.IntValue(k)})
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	for k := int64(0); k < 5; k++ {
		commit(k)
	}
	if err := s.Aion.Err(); err != nil {
		t.Fatal(err)
	}
	pulls := s.Aion.TimeStore().Stats().LatestPulls

	aionFS.SetFailAfter(aionFS.Ops() + 1) // the TimeStore's next write fails: ENOSPC
	commit(5)                             // the host's commit succeeds regardless
	if err := s.Aion.Err(); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("after a failed TimeStore append Err() = %v, want the injected fault", err)
	}
	aionFS.SetFailAfter(0) // the disk has room again
	for k := int64(6); k < 40; k++ {
		commit(k)
	}
	if got := s.Aion.LatestTimestamp(); got != 5 {
		t.Errorf("aion at ts %d: commits were appended on top of the hole at 6", got)
	}
	if err := s.Aion.ApplyBatch([]model.Update{model.AddNode(41, 99, nil, nil)}); !errors.Is(err, vfs.ErrInjected) {
		t.Errorf("ApplyBatch after the failure = %v, want it refused with the first failure", err)
	}
	if st := s.Aion.TimeStore().Stats(); st.LatestPulls != pulls || st.LatestMismatches != 0 {
		t.Errorf("the host's graph was asked for after the failure: %d pulls (were %d), %d mismatches",
			st.LatestPulls, pulls, st.LatestMismatches)
	}
	if err := s.Close(); !errors.Is(err, vfs.ErrInjected) {
		t.Errorf("Close = %v, want the sticky failure reported", err)
	}

	if s, err = Open(opts); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Aion.Err(); err != nil {
		t.Fatalf("reopened store still failed: %v", err)
	}
	g, err := s.Aion.TimeStore().GetGraph(40)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Aion.LatestTimestamp(); got != 40 || g.NodeCount() != 40 {
		t.Errorf("after the reopen aion is at ts %d with %d nodes, want 40 and 40", got, g.NodeCount())
	}
}

// chainElement is one element file on disk: its path and its position.
type chainElement struct {
	name string
	at   model.Timestamp
	seq  int
}

// chainElements lists the active segment's policy elements of a store that
// never sealed, fulls and deltas, oldest first.
func (r *residentSys) chainElements() []chainElement {
	return r.chainElementsIn("sys/aion/timestore/p-1")
}

// chainElementsIn lists the element files of one segment directory in
// position order.
func (r *residentSys) chainElementsIn(dir string) []chainElement {
	r.t.Helper()
	names, err := r.fs.ReadDir(dir)
	if err != nil {
		r.t.Fatal(err)
	}
	var out []chainElement
	for _, name := range names {
		if !strings.HasSuffix(name, ".dsnap") {
			continue
		}
		var at uint64 // two's complement: the entry of all history is at -1
		e := chainElement{name: filepath.Join(dir, name)}
		_, pos, _ := strings.Cut(name, "-")
		if _, err := fmt.Sscanf(pos, "%16x-%8x.dsnap", &at, &e.seq); err != nil || !(strings.HasPrefix(name, "full-") || strings.HasPrefix(name, "delta-")) {
			r.t.Fatalf("chain file %q: %v", name, err)
		}
		e.at = model.Timestamp(at)
		out = append(out, e)
	}
	slices.SortFunc(out, func(a, b chainElement) int { return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq)) })
	return out
}

// TestCachedGraphsShareWithLatest: a graph materialised from element files
// holds the latest graph's objects for every entity the history has not
// touched since that element. A reopened store reads each of its policy
// elements — every one a miss, a full or a delta on its cached neighbour —
// while a committer keeps replacing objects of the latest graph; afterwards
// each cached graph differs from the latest in exactly the entities some later
// commit names, and every read still answers what a replay from zero does.
func TestCachedGraphsShareWithLatest(t *testing.T) {
	r := newResidentSys(t, false)
	for i := 0; i < 150; i++ {
		r.commit(i, 4)
	}
	r.verify("loaded")
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r.open()
	var elems []model.Timestamp
	for _, e := range r.chainElements() {
		elems = append(elems, e.at)
	}
	if len(elems) < 3 { // a dozen: 600 operations, one due every 48
		t.Fatalf("%d policy elements, want at least 3", len(elems))
	}
	ts := r.Aion.TimeStore()
	before := ts.Stats()

	stop, done := make(chan struct{}), make(chan struct{})
	var committed atomic.Int64
	go func() {
		defer close(done)
		for i := 1000; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := r.Host.Run(func(tx *hostdb.Tx) error { return stageMix(tx, r.Host, i, 3) }); err != nil {
				t.Error(err)
				return
			}
			committed.Add(1)
		}
	}()
	for _, at := range elems {
		// At least one commit lands between any two loads.
		for n := committed.Load(); committed.Load() == n; runtime.Gosched() {
			select {
			case <-done:
				t.Fatal("the committer stopped")
			default:
			}
		}
		if _, err := ts.GetGraph(at); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	<-done
	if err := r.Aion.WaitSync(); err != nil {
		t.Fatal(err)
	}

	st := ts.Stats()
	if loaded, shared := st.LoadedEntities-before.LoadedEntities, st.SharedEntities-before.SharedEntities; shared == 0 || shared > loaded {
		t.Errorf("%d entity versions loaded, %d shared", loaded, shared)
	}
	r.mu.Lock()
	commits := r.commits
	r.mu.Unlock()
	gs, latest := ts.GraphStore(), r.Host.Current()
	for _, at := range elems {
		g, ok := gs.Get(at)
		if !ok {
			t.Fatalf("the element at %d is not cached after it was read", at)
		}
		touched := map[int64]bool{}
		for _, us := range commits[at:] { // commits[at] is the transaction stamped at+1
			for _, u := range us {
				touched[u.EntityKey()] = true
			}
		}
		unshared, want, total := 0, 0, 0
		g.ForEachNode(func(n *model.Node) bool {
			total++
			if latest.Node(n.ID) != n {
				unshared++
			}
			if touched[int64(n.ID)<<1] {
				want++
			}
			return true
		})
		g.ForEachRel(func(rel *model.Rel) bool {
			total++
			if latest.Rel(rel.ID) != rel {
				unshared++
			}
			if touched[int64(rel.ID)<<1|1] {
				want++
			}
			return true
		})
		if unshared != want || total == 0 {
			t.Errorf("the graph cached at %d holds %d of %d entities that are not the latest graph's objects; %d were updated since", at, unshared, total, want)
		}
	}
	r.verify("after sharing")
}
