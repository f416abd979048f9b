package timestore

import (
	"path/filepath"
	"slices"
	"testing"

	"aion/internal/enc"
	"aion/internal/memgraph"
	"aion/internal/model"
	"aion/internal/strstore"
)

// fakeHost stands in for a host database: the graph its commits add up to,
// behind the signature of hostdb.DB.Committed.
type fakeHost struct {
	g       *memgraph.Graph
	updates uint64
}

func (h *fakeHost) apply(t *testing.T, us []model.Update) {
	t.Helper()
	if err := h.g.ApplyAll(us); err != nil {
		t.Fatal(err)
	}
	h.updates += uint64(len(us))
}

func (h *fakeHost) Committed() (*memgraph.Graph, model.Timestamp, uint64) {
	return h.g.Clone(), h.g.Timestamp(), h.updates
}

// hostOf is a host that has committed us.
func hostOf(t *testing.T, us []model.Update) *fakeHost {
	h := &fakeHost{g: memgraph.New()}
	h.apply(t, us)
	return h
}

// latestOf is s.Latest, which cannot fail on a healthy store.
func latestOf(t *testing.T, s *Store) *memgraph.Graph {
	t.Helper()
	g, err := s.Latest()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// commitsOf cuts a stream into its timestamps' runs: the batches a host's
// commit listener would deliver.
func commitsOf(us []model.Update) (commits [][]model.Update) {
	for lo, i := 0, 1; i <= len(us); i++ {
		if i == len(us) || us[i].TS != us[lo].TS {
			commits = append(commits, us[lo:i])
			lo = i
		}
	}
	return commits
}

// TestHostedStoreWritesWhatAStandAloneOneDoes: a store attached to a host
// applies nothing and keeps no graph, yet fed one commit per round it writes
// the chain a stand-alone twin writes — same names, same bytes — because a due
// snapshot is captured at the end of the batch that made it due and scheduled
// at the next boundary; its Latest is the host's own objects; every read
// answers a replay from zero.
func TestHostedStoreWritesWhatAStandAloneOneDoes(t *testing.T) {
	us := recreateTail(fenceHistory(3, 1200))
	opts := Options{SnapshotEveryOps: 64, ParallelIO: 1}
	alone, host := opts, &fakeHost{g: memgraph.New()}
	alone.Dir, opts.Dir, opts.Host = t.TempDir(), t.TempDir(), host.Committed
	a, h := openStore(t, alone), openStore(t, opts)
	if h.own != nil || a.own == nil {
		t.Fatalf("own graph: hosted %v, stand-alone %v", h.own != nil, a.own != nil)
	}
	for _, c := range commitsOf(us) {
		host.apply(t, c)
		for _, s := range []*Store{a, h} {
			if err := s.AppendBatch(c); err != nil {
				t.Fatal(err)
			}
			s.WaitSnapshots()
		}
	}
	ha, hs := a.Stats(), h.Stats()
	if hs.Snapshots < 10 || hs.DeltaSnapshots == 0 || hs.LatestMismatches != 0 || hs.SnapshotsOverdue != 0 || hs.SnapshotErrors != 0 {
		t.Fatalf("hosted store: %+v", hs)
	}
	if hs.Snapshots != ha.Snapshots || int(hs.LatestPulls) != hs.Snapshots {
		t.Errorf("%d snapshots from %d pulls, the stand-alone twin took %d", hs.Snapshots, hs.LatestPulls, ha.Snapshots)
	}
	if got, want := digestFiles(t, filepath.Join(opts.Dir, "p-1", "*.dsnap")), digestFiles(t, filepath.Join(alone.Dir, "p-1", "*.dsnap")); got != want {
		t.Error("the hosted store's chain files differ from the stand-alone twin's")
	}
	latest, total := latestOf(t, h), 0
	host.g.ForEachNode(func(n *model.Node) bool {
		total++
		if latest.Node(n.ID) != n {
			t.Errorf("Latest holds another object than the host for node %d", n.ID)
		}
		return true
	})
	if total == 0 || latest.NodeCount() != total || latest.Timestamp() != us[len(us)-1].TS {
		t.Errorf("Latest: %d nodes at %d, the host holds %d", latest.NodeCount(), latest.Timestamp(), total)
	}
	o := &fenceOracle{t: t, us: us, pos: streamPositions(us), codec: h.codec}
	o.check(h, "hosted")
}

// TestDueSnapshotWaitsForTheRoundsLastCall: inside a group-commit round the
// host has applied every commit of the round before the first listener call,
// so a snapshot that falls due mid-round is not captured until the call for
// the round's last commit — never refused as a mismatch — and lands there.
func TestDueSnapshotWaitsForTheRoundsLastCall(t *testing.T) {
	us := fenceHistory(5, 900)
	host := &fakeHost{g: memgraph.New()}
	s := openStore(t, Options{SnapshotEveryOps: 40, ParallelIO: 1, Host: host.Committed})
	commits := commitsOf(us)
	roundEnd := map[position]bool{}
	for lo := 0; lo < len(commits); lo += 5 {
		round := commits[lo:min(lo+5, len(commits))]
		for _, c := range round {
			host.apply(t, c)
		}
		for _, c := range round {
			if err := s.AppendBatch(c); err != nil {
				t.Fatal(err)
			}
			s.WaitSnapshots()
		}
		last := round[len(round)-1]
		roundEnd[position{ts: last[0].TS, seq: uint32(len(last) - 1)}] = true
	}
	st, chain := s.Stats(), s.active().elems()
	if len(chain) < 5 || st.LatestMismatches != 0 || st.SnapshotErrors != 0 {
		t.Fatalf("%d chain elements, %d mismatches, %d snapshot errors", len(chain), st.LatestMismatches, st.SnapshotErrors)
	}
	for _, e := range chain {
		if !roundEnd[e.pos] {
			t.Errorf("element at (%d, %d) is not at the end of a round", e.pos.ts, e.pos.seq)
		}
	}
	o := &fenceOracle{t: t, us: us, pos: streamPositions(us), codec: s.codec}
	o.check(s, "rounds of five")
}

// TestDivergedHostIsCountedAndReported: a host one commit ahead of the log —
// a commit the listener never delivered — sits at the log's last timestamp
// after every later commit with one commit's updates too many. Every due
// snapshot is refused and counted, nothing is captured from the wrong state,
// and once a whole policy interval has gone by Stats says so.
func TestDivergedHostIsCountedAndReported(t *testing.T) {
	const every = 32
	commits := commitsOf(fenceHistory(7, 400))
	host := &fakeHost{g: memgraph.New()}
	s := openStore(t, Options{SnapshotEveryOps: every, ParallelIO: 1, Host: host.Committed})
	// The lost commit only sets properties, so the later ones still apply.
	lost := slices.IndexFunc(commits, func(c []model.Update) bool {
		return !slices.ContainsFunc(c, func(u model.Update) bool { return u.Kind != model.OpUpdateNode })
	})
	fed := 0
	for i, c := range commits {
		host.apply(t, c)
		if i == lost {
			continue
		}
		if err := s.AppendBatch(c); err != nil {
			t.Fatal(err)
		}
		fed += len(c)
	}
	if lost < 0 || lost > 10 {
		t.Fatalf("commit %d is the first without a creation: pick another history", lost)
	}
	s.WaitSnapshots()
	st := s.Stats()
	if st.Snapshots != 0 || len(s.active().elems()) != 0 {
		t.Errorf("%d snapshots taken from a host that holds other updates than the log", st.Snapshots)
	}
	if st.LatestMismatches == 0 || st.SnapshotsOverdue != int64(fed/every-1) {
		t.Errorf("%d mismatches counted, %d policy intervals overdue after %d updates at one snapshot per %d",
			st.LatestMismatches, st.SnapshotsOverdue, fed, every)
	}
	// The store itself is whole: what it needs a graph for, it materialises.
	g := latestOf(t, s)
	ref := memgraph.New()
	for i, c := range commits {
		if i != lost {
			if err := ref.ApplyAll(c); err != nil {
				t.Fatal(err)
			}
		}
	}
	if g.NodeCount() != ref.NodeCount() || g.Timestamp() != ref.Timestamp() {
		t.Errorf("Latest: %d nodes at %d, a replay of the log gives %d at %d", g.NodeCount(), g.Timestamp(), ref.NodeCount(), ref.Timestamp())
	}
}

// TestOpenHostedLoadsNothing: recovery of a hosted store walks its log for
// the count and the fences and builds no graph, whatever the host holds;
// Latest is the host's graph when the two end at the same commit, and a
// materialisation of the log's end when the host is ahead — a crash the
// TimeStore's log lagged through, before reconcile.
func TestOpenHostedLoadsNothing(t *testing.T) {
	dir := t.TempDir()
	codec := enc.NewCodec(strstore.NewMem())
	us := chainUpdates(40)
	s, err := Open(codec, Options{Dir: dir, SnapshotEveryOps: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendBatch(us); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		host   *fakeHost
		shared bool
	}{
		{"agrees", hostOf(t, us), true},
		{"host ahead", hostOf(t, append(us[:len(us):len(us)], model.AddNode(us[len(us)-1].TS+1, 999, nil, nil))), false},
		{"same timestamp, more updates", &fakeHost{g: hostOf(t, us).g, updates: uint64(len(us) + 1)}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Open(codec, Options{Dir: dir, SnapshotEveryOps: 16, Host: tc.host.Committed})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if st := s.Stats(); s.own != nil || st.LoadedEntities != 0 || st.Updates != uint64(len(us)) || s.LatestTimestamp() != us[len(us)-1].TS {
				t.Errorf("recovered %d updates through ts %d, %d entity versions loaded, own graph: %v",
					st.Updates, s.LatestTimestamp(), st.LoadedEntities, s.own != nil)
			}
			g := latestOf(t, s)
			if g.NodeCount() != 40 || g.RelCount() != 39 || g.Timestamp() != us[len(us)-1].TS {
				t.Errorf("latest graph: %d nodes, %d rels at ts %d", g.NodeCount(), g.RelCount(), g.Timestamp())
			}
			st := s.Stats()
			// One pull for the state at the log's end; refused, the load of the
			// newest element pulls its reference.
			if shared := g.Rel(38) == tc.host.g.Rel(38); shared != tc.shared || st.LatestPulls != map[bool]uint64{true: 1, false: 2}[tc.shared] || st.LatestMismatches != 0 {
				t.Errorf("Latest is the host's graph: %v (%d pulls, %d mismatches), want %v", shared, st.LatestPulls, st.LatestMismatches, tc.shared)
			}
			// Fences and positions are laid the same either way.
			at, err := s.GetGraph(25)
			if err != nil || at.NodeCount() != 25 {
				t.Errorf("GetGraph(25) = %v nodes, %v", at.NodeCount(), err)
			}
		})
	}
}
