package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"aion/internal/bolt"
	"aion/internal/cypher"
	"aion/internal/hostdb"
	"aion/internal/model"
	"aion/internal/replica"
	"aion/internal/system"
)

// debugNode is one served system, wired as main wires it: a Source on every
// node, and on a follower an Applier gating reads and tailing the primary.
type debugNode struct {
	sys         *system.System
	addr, debug string // the Bolt and the debug listener
}

func serveDebugNode(t *testing.T, replicaOf string) debugNode {
	t.Helper()
	sys, err := system.Open(system.Options{Dir: t.TempDir(), SyncCommits: true, Replica: replicaOf != ""})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	opts := bolt.Options{ReplicationHandler: replica.NewSource(sys).ServeConn}
	var app *replica.Applier
	if replicaOf != "" {
		app = replica.NewApplier(sys)
		opts.ReadGate = app.Gate
	}
	node := replica.NewNode(sys, app)
	opts.Admin = node
	srv := bolt.NewServer(cypher.NewEngine(sys), opts)
	t.Cleanup(func() { srv.Close() })
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if app != nil {
		node.StartFollower(context.Background(), &replica.Follower{Applier: app, Addr: replicaOf})
		t.Cleanup(func() { node.StopFollower() })
	}
	dbg, at, err := serveDebug("127.0.0.1:0", sys)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dbg.Close() })
	return debugNode{sys: sys, addr: addr, debug: at}
}

// getJSON decodes the JSON the debug listener at addr serves at path.
func getJSON(t *testing.T, addr, path string, v any) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// metricsKeys returns the keys of the node's /metrics, sorted.
func metricsKeys(t *testing.T, n debugNode) []string {
	t.Helper()
	var m map[string]json.RawMessage
	getJSON(t, n.debug, "/metrics", &m)
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestServeDebug serves a primary and a follower in one process and reads
// each one's /metrics after a commit, an expand and one query text sent
// twice over the wire: every component's key is there, replica.applier on
// the follower only; the primary's entries carry make disk-budget's rows, the
// planner's counters and decisions and the statement cache. /debug/vars
// carries the heap, and CALL aion.stats() over Bolt lists /metrics's keys.
func TestServeDebug(t *testing.T) {
	p := serveDebugNode(t, "")
	f := serveDebugNode(t, p.addr)
	if _, err := p.sys.Host.Run(func(tx *hostdb.Tx) (err error) {
		var ids [5]model.NodeID
		for i := range ids {
			if ids[i], err = tx.CreateNode([]string{"P"}, nil); err != nil {
				return err
			}
		}
		_, err = tx.CreateRel(ids[0], ids[1], "KNOWS", nil)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.sys.Aion.ExpandContext(context.Background(), 0, model.Outgoing, 1, p.sys.Aion.LatestTimestamp()); err != nil {
		t.Fatal(err)
	}
	c, err := bolt.Dial(p.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for range 2 {
		if _, _, _, err := c.Run("MATCH (n:P) RETURN count(*)", nil); err != nil {
			t.Fatal(err)
		}
	}

	primaryKeys := []string{"bolt", "cypher", "hostdb", "hostdb.storage", "ingest_error", "lineagestore", "planner", "replica.source", "timestore"}
	followerKeys := []string{"bolt", "cypher", "hostdb", "hostdb.storage", "ingest_error", "lineagestore", "planner", "replica.applier", "replica.source", "timestore"}
	if got := metricsKeys(t, p); !slices.Equal(got, primaryKeys) {
		t.Errorf("the primary's /metrics keys: %v, want %v", got, primaryKeys)
	}
	if got := metricsKeys(t, f); !slices.Equal(got, followerKeys) {
		t.Errorf("the follower's /metrics keys: %v, want %v", got, followerKeys)
	}

	var m struct {
		Planner struct {
			Nodes, Rels int64
			AvgDegree   float64 `json:"avg_degree"`
			Decisions   map[string]int64
		}
		TimeStore struct {
			Updates                               uint64
			LogBytes, DeltaBytes, StringBytes     *int64
			RepairedLogBytes, RepairedStringBytes *int64
		}
		Host    struct{ RepairedLogBytes, RepairedStringBytes *int64 } `json:"hostdb"`
		Storage struct {
			NodeRecords, RelRecords, PropRecords, TxnLog, Strings *int64
		} `json:"hostdb.storage"`
		Cypher       struct{ Cached, Hits, Misses uint64 }
		LineageStore struct {
			Trees []struct {
				Name  string
				Pages uint64
				Bytes int64
			}
		}
	}
	getJSON(t, p.debug, "/metrics", &m)
	// Each tree's row of make disk-budget: a meta page and a root leaf at least.
	trees := m.LineageStore.Trees
	if len(trees) != 3 {
		t.Fatalf("lineagestore publishes %d trees, want 3: %+v", len(trees), trees)
	}
	for i, name := range []string{"nodes.idx", "outrels.idx", "in.idx"} {
		if tr := trees[i]; tr.Name != name || tr.Pages < 2 || tr.Bytes != int64(tr.Pages)*4096 {
			t.Errorf("lineagestore tree %d: %+v, want %s with its pages and bytes", i, tr, name)
		}
	}
	// make disk-budget's other rows: the host's records, log and strings, the
	// TimeStore's log, deltas (fulls are SnapshotBytes less them) and strings.
	st, ts := m.Storage, m.TimeStore
	for name, n := range map[string]*int64{
		"hostdb.storage NodeRecords": st.NodeRecords, "hostdb.storage RelRecords": st.RelRecords,
		"hostdb.storage PropRecords": st.PropRecords, "hostdb.storage TxnLog": st.TxnLog, "hostdb.storage Strings": st.Strings,
		"timestore LogBytes": ts.LogBytes, "timestore DeltaBytes": ts.DeltaBytes, "timestore StringBytes": ts.StringBytes,
	} {
		if n == nil {
			t.Fatalf("%s is not published", name)
		}
	}
	if *st.TxnLog == 0 || *st.NodeRecords == 0 || *ts.LogBytes == 0 || *ts.StringBytes == 0 {
		t.Errorf("after a commit: hostdb.storage %+v, timestore log %d B, strings %d B", st, *ts.LogBytes, *ts.StringBytes)
	}
	p2 := m.Planner
	if p2.Nodes != 5 || p2.Rels != 1 || p2.AvgDegree != 0.2 || ts.Updates != 6 {
		t.Errorf("planner after a commit of five nodes and a relationship: %+v, timestore updates %d", p2, ts.Updates)
	}
	// A store opened on an empty directory had no torn tail to repair.
	for name, n := range map[string]*int64{
		"hostdb RepairedLogBytes": m.Host.RepairedLogBytes, "hostdb RepairedStringBytes": m.Host.RepairedStringBytes,
		"timestore RepairedLogBytes": ts.RepairedLogBytes, "timestore RepairedStringBytes": ts.RepairedStringBytes,
	} {
		if n == nil || *n != 0 {
			t.Errorf("%s = %v, want a published 0", name, n)
		}
	}
	if cy := m.Cypher; cy.Cached != 1 || cy.Hits < 1 || cy.Misses != 1 {
		t.Errorf("cypher after one text sent twice: %+v, want 1 cached, a hit and 1 miss", cy)
	}
	// A 1-hop expand reaches an estimated 1.2 of 5 nodes, under 30 %: the
	// LineageStore.
	if p2.Decisions["lineage"] != 1 || p2.Decisions["timestore"] != 0 {
		t.Errorf("planner decisions after one 1-hop expand: %v", p2.Decisions)
	}

	var vars struct{ MemStats struct{ HeapAlloc uint64 } }
	getJSON(t, p.debug, "/debug/vars", &vars)
	if vars.MemStats.HeapAlloc == 0 {
		t.Error("/debug/vars carries no memstats.HeapAlloc")
	}

	for _, n := range []debugNode{p, f} {
		c, err := bolt.Dial(n.addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		cols, rows, _, err := c.Run("CALL aion.stats()", nil)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, r := range rows {
			names = append(names, r[0].S.Str())
		}
		if want := metricsKeys(t, n); !slices.Equal(cols, []string{"name", "value"}) || !slices.Equal(names, want) {
			t.Errorf("CALL aion.stats() on %s: columns %v, names %v; want name and value, and %v", n.addr, cols, names, want)
		}
	}
}

// TestServeOnAMissingDirectory: -dir names a directory two levels below one
// that exists; opening the store creates it, and the server serves from it.
func TestServeOnAMissingDirectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "a", "b")
	sys, err := system.Open(system.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	srv := bolt.NewServer(cypher.NewEngine(sys), bolt.Options{})
	defer srv.Close()
	if _, err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Host.Run(func(tx *hostdb.Tx) error {
		_, err := tx.CreateNode([]string{"P"}, nil)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(dir); err != nil || !st.IsDir() {
		t.Fatalf("the storage directory: %v", err)
	}
}
