package main

import (
	"encoding/json"
	"net/http"
	"testing"

	"aion/internal/bolt"
	"aion/internal/cypher"
	"aion/internal/hostdb"
	"aion/internal/model"
	"aion/internal/system"
)

// TestServeDebug reads /debug/vars from the debug listener after a commit and
// an expand: the planner's counters and its decisions are published beside
// the stores' Stats. expvar.Publish panics on a name published twice, so this
// is the process's one call of serveDebug.
func TestServeDebug(t *testing.T) {
	sys, err := system.Open(system.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	srv := bolt.NewServer(cypher.NewEngine(sys), bolt.Options{})
	defer srv.Close()
	dbg, at, err := serveDebug("127.0.0.1:0", sys, srv)
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
	if _, err := sys.Aion.Expand(0, model.Outgoing, 1, sys.Aion.LatestTimestamp()); err != nil {
		t.Fatal(err)
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
		TimeStore struct{ Updates uint64 } `json:"aion.timestore"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	p := vars.Planner
	if p.Nodes != 5 || p.Rels != 1 || p.AvgDegree != 0.2 || vars.TimeStore.Updates != 6 {
		t.Errorf("aion.planner after a commit of five nodes and a relationship: %+v, timestore updates %d", p, vars.TimeStore.Updates)
	}
	// A 1-hop expand reaches an estimated 1.2 of 5 nodes, under 30 %: the
	// LineageStore.
	if p.Decisions["lineage"] != 1 || p.Decisions["timestore"] != 0 {
		t.Errorf("aion.planner decisions after one 1-hop expand: %v", p.Decisions)
	}
}
