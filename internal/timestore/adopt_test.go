package timestore

import (
	"testing"

	"aion/internal/enc"
	"aion/internal/memgraph"
	"aion/internal/model"
	"aion/internal/strstore"
)

// hostOf stands in for a host database: the graph a replay of us builds, as
// hostdb.Committed would hand it over.
func hostOf(t *testing.T, us []model.Update) *HostGraph {
	t.Helper()
	g := memgraph.New()
	if err := g.ApplyAll(us); err != nil {
		t.Fatal(err)
	}
	return &HostGraph{Graph: g, TS: g.Timestamp(), Updates: uint64(len(us))}
}

// TestAdoptLatestChecksThePosition: AdoptLatest swaps the latest graph for the
// host's only at the store's own last timestamp and entity counts; anything
// else is refused and counted, and the store's own latest stays.
func TestAdoptLatestChecksThePosition(t *testing.T) {
	s := openStore(t, Options{SnapshotEveryOps: 1 << 30})
	us := chainUpdates(6)
	if err := s.AppendBatch(us); err != nil {
		t.Fatal(err)
	}
	own := s.GraphStore().LatestNode(0)
	host := hostOf(t, us)

	if s.AdoptLatest(host.Graph.Clone(), host.TS-1) {
		t.Error("adopted a graph offered at another timestamp than the store's last")
	}
	ahead := host.Graph.Clone()
	if err := ahead.Apply(model.AddNode(host.TS, 99, nil, nil)); err != nil {
		t.Fatal(err)
	}
	if s.AdoptLatest(ahead, host.TS) {
		t.Error("adopted a graph with one node more than the store's latest")
	}
	if st := s.Stats(); st.LatestMismatches != 2 || st.LatestAdoptions != 0 || s.GraphStore().LatestNode(0) != own {
		t.Fatalf("after two refusals: %d mismatches, %d adoptions, latest replaced: %v",
			st.LatestMismatches, st.LatestAdoptions, s.GraphStore().LatestNode(0) != own)
	}

	stale := host.Graph.Clone()
	stale.SetTimestamp(host.TS + 7) // what an aborted commit left on a host's graph
	if !s.AdoptLatest(stale, host.TS) {
		t.Fatal("refused the host's graph at the store's own position")
	}
	gs := s.GraphStore()
	if gs.LatestNode(0) != host.Graph.Node(0) || gs.LatestRel(0) != host.Graph.Rel(0) {
		t.Error("after the adoption the latest graph does not hold the host's entity objects")
	}
	if got := gs.LatestTimestamp(); got != host.TS {
		t.Errorf("adopted graph stamped %d, want the store's position %d", got, host.TS)
	}
	next := model.AddNode(host.TS+1, 50, nil, nil)
	if err := s.Append(next); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.LatestAdoptions != 1 || st.LatestPrivateUpdates != 1 {
		t.Errorf("after one adoption and one append: %d adoptions, %d private updates", st.LatestAdoptions, st.LatestPrivateUpdates)
	}
	if host.Graph.Node(50) != nil || gs.LatestNode(50) == nil {
		t.Error("the store's append leaked into the host's graph, or missed its own")
	}
}

// TestOpenInstallsAnAgreeingHostGraph: recovery takes Options.Host exactly
// when the recovered log ends where the host does, and builds its own latest
// — with the same contents — when the host is ahead, behind or empty.
func TestOpenInstallsAnAgreeingHostGraph(t *testing.T) {
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
		name    string
		host    *HostGraph
		install bool
	}{
		{"agrees", hostOf(t, us), true},
		{"host ahead", hostOf(t, append(us[:len(us):len(us)], model.AddNode(us[len(us)-1].TS+1, 999, nil, nil))), false},
		{"host behind", hostOf(t, us[:len(us)-1]), false},
		{"same timestamp, fewer updates", &HostGraph{Graph: hostOf(t, us).Graph, TS: us[len(us)-1].TS, Updates: uint64(len(us) - 1)}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Open(codec, Options{Dir: dir, SnapshotEveryOps: 16, Host: tc.host})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			installed := s.GraphStore().LatestNode(0) == tc.host.Graph.Node(0)
			if installed != tc.install || s.Stats().LatestAdoptions != map[bool]uint64{true: 1}[tc.install] {
				t.Errorf("host graph installed: %v (%d adoptions), want %v", installed, s.Stats().LatestAdoptions, tc.install)
			}
			if st := s.Stats(); st.Updates != uint64(len(us)) || s.LatestTimestamp() != us[len(us)-1].TS {
				t.Errorf("recovered %d updates through ts %d", st.Updates, s.LatestTimestamp())
			}
			g := s.GraphStore().Latest()
			if g.NodeCount() != 40 || g.RelCount() != 39 || g.Timestamp() != us[len(us)-1].TS {
				t.Errorf("latest graph: %d nodes, %d rels at ts %d", g.NodeCount(), g.RelCount(), g.Timestamp())
			}
			// Fences and positions are laid the same either way.
			at, err := s.GetGraph(25)
			if err != nil || at.NodeCount() != 25 {
				t.Errorf("GetGraph(25) = %v nodes, %v", at.NodeCount(), err)
			}
		})
	}
}
