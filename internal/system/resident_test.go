package system

// One resident current graph: the host's committed graph and the TimeStore's
// latest are one set of entity objects. These tests pin the sharing (pointer
// identity between hostdb.View and the GraphStore's latest), every moment the
// hand-over may and may not happen, and that sharing changes nothing a query
// or a snapshot file can observe.

import (
	"errors"
	"fmt"
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
	*System
	mu      sync.Mutex
	commits [][]model.Update
}

// residentSnapshotEvery is the operation snapshot policy of these stores:
// small enough that policy snapshots fire throughout every case.
const residentSnapshotEvery = 48

func (r *residentSys) open() {
	r.t.Helper()
	s, err := Open(Options{Dir: "sys", SyncCommits: true, FS: r.fs, Replica: r.replica,
		Aion: aion.Options{SnapshotEveryOps: residentSnapshotEvery, ParallelIO: 1}})
	if err != nil {
		r.t.Fatal(err)
	}
	r.System = s
	s.Host.OnCommit(func(ts model.Timestamp, us []model.Update) {
		r.mu.Lock()
		defer r.mu.Unlock()
		if int(ts) != len(r.commits)+1 {
			r.t.Errorf("listener saw commit %d after %d commits", ts, len(r.commits))
		}
		r.commits = append(r.commits, us)
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

// unshared counts the live entities whose object in the host's committed
// graph is not the very object the TimeStore's latest graph holds.
func (r *residentSys) unshared() (unshared, total int) {
	gs := r.Aion.TimeStore().GraphStore()
	r.Host.View(func(g *memgraph.Graph) {
		g.ForEachNode(func(n *model.Node) bool {
			total++
			if gs.LatestNode(n.ID) != n {
				unshared++
			}
			return true
		})
		g.ForEachRel(func(rel *model.Rel) bool {
			total++
			if gs.LatestRel(rel.ID) != rel {
				unshared++
			}
			return true
		})
	})
	return unshared, total
}

// wantOneGraph asserts every entity is shared.
func (r *residentSys) wantOneGraph(label string) {
	r.t.Helper()
	if un, total := r.unshared(); un != 0 || total == 0 {
		r.t.Errorf("%s: %d of %d entities are not shared between the host's graph and the TimeStore's latest", label, un, total)
	}
}

// verify drains the background workers and checks what sharing must never
// change: Aion has every commit, every policy snapshot file is placed at a
// commit boundary (its position is the last update of a commit that exists),
// GetGraph at every commit timestamp equals a replay of the commits from
// zero, and the TimeStore never refused a hand-over.
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
		r.t.Errorf("%s: %d refused hand-overs, %d snapshot errors (%s)", label, st.LatestMismatches, st.SnapshotErrors, st.LastSnapshotError)
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

func (r *residentSys) adoptions() uint64 { return r.Aion.TimeStore().Stats().LatestAdoptions }

// commitUntilAdopted takes single-operation commits until the write path
// hands the graph over.
func (r *residentSys) commitUntilAdopted(seed int) {
	r.t.Helper()
	before := r.adoptions()
	for i := 0; r.adoptions() == before; i++ {
		if i > 1<<12 {
			r.t.Fatal("no hand-over in 4096 commits")
		}
		r.commit(seed+i, 1)
	}
}

func TestOneResidentGraph(t *testing.T) {
	t.Run("clean reopen installs the host's graph", func(t *testing.T) {
		r := newResidentSys(t, false)
		for i := 0; i < 60; i++ {
			r.commit(i, 4)
		}
		r.verify("loaded")
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		r.open()
		// One install by recovery (the logs agree), one hand-over by reconcile.
		if got := r.adoptions(); got != 2 {
			t.Errorf("clean reopen: %d adoptions, want 2 (recover's install and reconcile's)", got)
		}
		if st := r.Aion.TimeStore().Stats(); st.LatestPrivateUpdates != 0 {
			t.Errorf("clean reopen: %d private updates", st.LatestPrivateUpdates)
		}
		r.wantOneGraph("clean reopen")
		r.verify("clean reopen")
	})

	t.Run("crash-lagged reopen builds, reconciles, then adopts", func(t *testing.T) {
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
		// The TimeStore's log ends before the host's: recovery must have built
		// its own latest, and only reconcile's hand-over joined the two.
		if got := r.adoptions(); got != 1 {
			t.Errorf("crash-lagged reopen: %d adoptions, want 1 (reconcile's only)", got)
		}
		r.wantOneGraph("crash-lagged reopen")
		r.verify("crash-lagged reopen")
	})

	t.Run("single commits re-adopt past the threshold", func(t *testing.T) {
		r := newResidentSys(t, false)
		for i := 0; i < 50; i++ {
			r.commit(i, 8)
		}
		r.commitUntilAdopted(1000) // start from a fresh hand-over
		r.wantOneGraph("after a hand-over")
		var vectors int
		r.Host.View(func(g *memgraph.Graph) { vectors = int(g.MaxNodeID()) + int(g.MaxRelID()) })
		from := r.Aion.TimeStore().Stats().Updates
		for i := 0; r.Aion.TimeStore().Stats().Updates == from; i++ {
			r.commit(2000+i, 1)
		}
		if un, _ := r.unshared(); un == 0 {
			t.Fatal("a commit below the threshold left nothing private: the threshold is not being exercised")
		}
		r.commitUntilAdopted(3000)
		took := int(r.Aion.TimeStore().Stats().Updates - from)
		if want := (vectors + handOverFraction - 1) / handOverFraction; took != want {
			t.Errorf("re-adopted after %d updates, want %d (1/%d of %d vector slots)", took, want, handOverFraction, vectors)
		}
		if st := r.Aion.TimeStore().Stats(); st.LatestPrivateUpdates != 0 {
			t.Errorf("%d private updates right after a hand-over", st.LatestPrivateUpdates)
		}
		r.wantOneGraph("after re-adoption")
		r.verify("single commits")
	})

	t.Run("concurrent committers, snapshots and readers", func(t *testing.T) {
		r := newResidentSys(t, false)
		for i := 0; i < 10; i++ {
			r.commit(i, 8)
		}
		before := r.adoptions()
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
		if r.adoptions() == before {
			t.Error("no hand-over during 400 concurrent commits")
		}
		st := r.Aion.TimeStore().Stats()
		if un, _ := r.unshared(); uint64(un) > st.LatestPrivateUpdates {
			t.Errorf("%d unshared entities, but only %d updates since the last hand-over", un, st.LatestPrivateUpdates)
		}
		r.verify("concurrent committers")
	})

	t.Run("conflict-aborted transactions", func(t *testing.T) {
		r := newResidentSys(t, false)
		for i := 0; i < 10; i++ {
			r.commit(i, 8)
		}
		// Pairs race to delete the same relationship: one of each pair aborts
		// after its first update (a node it created) was applied, inside group-
		// commit rounds whose other members commit — and the graph is small, so
		// a hand-over falls due every few rounds.
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
		r.commitUntilAdopted(5000)
		r.wantOneGraph("after aborts and a hand-over")
		r.verify("conflict-aborted transactions")
	})

	t.Run("follower fed by ApplyShipment", func(t *testing.T) {
		p, f := newResidentSys(t, false), newResidentSys(t, true)
		var strOff, txnOff int64
		ship := func() {
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
		for i := 0; i < 30; i++ {
			p.commit(i, 6)
		}
		ship() // one shipment of 30 commits: only its last listener call may adopt
		if got := f.adoptions(); got != 1 {
			t.Errorf("first shipment: %d adoptions on the follower, want 1", got)
		}
		f.wantOneGraph("follower after its first shipment")
		for i := 30; i < 90; i++ {
			p.commit(i, 6)
			if i%7 == 0 {
				ship()
			}
		}
		ship()
		before := f.adoptions()
		for i := 0; f.adoptions() == before; i++ {
			if i > 1<<12 {
				t.Fatal("no hand-over on the follower in 4096 shipments")
			}
			p.commit(6000+i, 1)
			ship()
		}
		f.wantOneGraph("follower after a re-adoption")
		f.verify("follower")
		p.verify("primary")
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		f.open()
		f.wantOneGraph("follower reopened")
		f.verify("follower reopened")
	})
}

// TestFailedIngestIsSticky: the TimeStore's disk fails under one commit while
// the host's is fine. The host has acknowledged the commit and the listener
// has nobody to tell, so Aion must remember: Err reports the failure, later
// commits are refused instead of being appended on top of the hole, the
// graphs are not joined across it, and a reopen repairs it from the host log.
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
	adoptions := s.Aion.TimeStore().Stats().LatestAdoptions

	aionFS.SetFailAfter(aionFS.Ops() + 1) // the TimeStore's next write fails: ENOSPC
	commit(5)                             // the host's commit succeeds regardless
	if err := s.Aion.Err(); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("after a failed TimeStore append Err() = %v, want the injected fault", err)
	}
	aionFS.SetFailAfter(0) // the disk has room again
	for k := int64(6); k < 40; k++ {
		commit(k) // far past the hand-over threshold of a 40-node graph
	}
	if got := s.Aion.LatestTimestamp(); got != 5 {
		t.Errorf("aion at ts %d: commits were appended on top of the hole at 6", got)
	}
	if err := s.Aion.ApplyBatch([]model.Update{model.AddNode(41, 99, nil, nil)}); !errors.Is(err, vfs.ErrInjected) {
		t.Errorf("ApplyBatch after the failure = %v, want it refused with the first failure", err)
	}
	if st := s.Aion.TimeStore().Stats(); st.LatestAdoptions != adoptions || st.LatestMismatches != 0 {
		t.Errorf("hand-overs went on after the failure: %d adoptions (were %d), %d mismatches",
			st.LatestAdoptions, adoptions, st.LatestMismatches)
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

// chainElement is one policy element on disk: its file and its position.
type chainElement struct {
	name string
	at   model.Timestamp
	seq  int
}

// chainElements lists the policy elements on disk, fulls and deltas, oldest
// first.
func (r *residentSys) chainElements() []chainElement {
	r.t.Helper()
	names, err := r.fs.ReadDir("sys/aion/timestore/p-1")
	if err != nil {
		r.t.Fatal(err)
	}
	var out []chainElement
	for _, name := range names {
		if !strings.HasSuffix(name, ".dsnap") {
			continue
		}
		e := chainElement{name: name}
		_, pos, _ := strings.Cut(name, "-")
		if _, err := fmt.Sscanf(pos, "%16x-%8x.dsnap", &e.at, &e.seq); err != nil || !(strings.HasPrefix(name, "full-") || strings.HasPrefix(name, "delta-")) {
			r.t.Fatalf("chain file %q: %v", name, err)
		}
		out = append(out, e)
	}
	slices.SortFunc(out, func(a, b chainElement) int { return int(a.at - b.at) })
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
	if len(elems) < 3 { // a dozen, fewer when the snapshot worker fell behind the commits
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
	gs := ts.GraphStore()
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
			if gs.LatestNode(n.ID) != n {
				unshared++
			}
			if touched[int64(n.ID)<<1] {
				want++
			}
			return true
		})
		g.ForEachRel(func(rel *model.Rel) bool {
			total++
			if gs.LatestRel(rel.ID) != rel {
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
