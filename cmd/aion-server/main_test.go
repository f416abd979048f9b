package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"aion/internal/bolt"
	"aion/internal/cypher"
	"aion/internal/hostdb"
	"aion/internal/model"
	"aion/internal/system"
)

// TestServeDebug reads /debug/vars from the debug listener after a commit, an
// expand and one query text sent twice over the wire: the planner's counters
// and decisions and the engine's statement cache are published beside the
// stores' Stats. expvar.Publish panics on a name published twice, so this is
// the process's one call of serveDebug.
func TestServeDebug(t *testing.T) {
	sys, err := system.Open(system.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	eng := cypher.NewEngine(sys)
	srv := bolt.NewServer(eng, bolt.Options{})
	defer srv.Close()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dbg, at, err := serveDebug("127.0.0.1:0", sys, eng, srv)
	if err != nil {
		t.Fatal(err)
	}
	defer dbg.Close()

	if _, err := sys.Host.Run(func(tx *hostdb.Tx) (err error) {
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
	if _, err := sys.Aion.ExpandContext(context.Background(), 0, model.Outgoing, 1, sys.Aion.LatestTimestamp()); err != nil {
		t.Fatal(err)
	}
	c, err := bolt.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for range 2 {
		if _, _, _, err := c.Run("MATCH (n:P) RETURN count(*)", nil); err != nil {
			t.Fatal(err)
		}
	}

	resp, err := http.Get("http://" + at + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars struct {
		Planner struct {
			Nodes, Rels int64
			AvgDegree   float64 `json:"avg_degree"`
			Decisions   map[string]int64
		} `json:"aion.planner"`
		TimeStore struct {
			Updates                               uint64
			RepairedLogBytes, RepairedStringBytes *int64
		} `json:"aion.timestore"`
		Host         struct{ RepairedLogBytes, RepairedStringBytes *int64 } `json:"aion.hostdb"`
		Cypher       struct{ Cached, Hits, Misses uint64 }                  `json:"aion.cypher"`
		LineageStore struct {
			Trees []struct {
				Name  string
				Pages uint64
				Bytes int64
			}
		} `json:"aion.lineagestore"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	// Each tree's row of make disk-budget: a meta page and a root leaf at least.
	trees := vars.LineageStore.Trees
	if len(trees) != 4 {
		t.Fatalf("aion.lineagestore publishes %d trees, want 4: %+v", len(trees), trees)
	}
	for i, name := range []string{"nodes.idx", "rels.idx", "out.idx", "in.idx"} {
		if tr := trees[i]; tr.Name != name || tr.Pages < 2 || tr.Bytes != int64(tr.Pages)*4096 {
			t.Errorf("aion.lineagestore tree %d: %+v, want %s with its pages and bytes", i, tr, name)
		}
	}
	p := vars.Planner
	if p.Nodes != 5 || p.Rels != 1 || p.AvgDegree != 0.2 || vars.TimeStore.Updates != 6 {
		t.Errorf("aion.planner after a commit of five nodes and a relationship: %+v, timestore updates %d", p, vars.TimeStore.Updates)
	}
	// A store opened on an empty directory had no torn tail to repair.
	for name, n := range map[string]*int64{
		"aion.hostdb RepairedLogBytes": vars.Host.RepairedLogBytes, "aion.hostdb RepairedStringBytes": vars.Host.RepairedStringBytes,
		"aion.timestore RepairedLogBytes": vars.TimeStore.RepairedLogBytes, "aion.timestore RepairedStringBytes": vars.TimeStore.RepairedStringBytes,
	} {
		if n == nil || *n != 0 {
			t.Errorf("%s = %v, want a published 0", name, n)
		}
	}
	if cy := vars.Cypher; cy.Cached != 1 || cy.Hits < 1 || cy.Misses != 1 {
		t.Errorf("aion.cypher after one text sent twice: %+v, want 1 cached, a hit and 1 miss", cy)
	}
	// A 1-hop expand reaches an estimated 1.2 of 5 nodes, under 30 %: the
	// LineageStore.
	if p.Decisions["lineage"] != 1 || p.Decisions["timestore"] != 0 {
		t.Errorf("aion.planner decisions after one 1-hop expand: %v", p.Decisions)
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
