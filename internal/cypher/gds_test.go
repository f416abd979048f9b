package cypher

import (
	"math"
	"testing"

	"aion/internal/model"
)

// gdsEngine builds a hub graph: nodes 0..4, everyone points at 0, plus a
// triangle 1-2-3 (directed edges 1->2, 2->3, 3->1).
func gdsEngine(t *testing.T) *Engine {
	e := newEngine(t)
	mustQuery(t, e, `CREATE (a:N), (b:N), (c:N), (d:N), (x:N)`, nil)
	mustQuery(t, e, `MATCH (a), (b) WHERE id(a) = 1 AND id(b) = 0 CREATE (a)-[:R {w: 2}]->(b)`, nil)
	mustQuery(t, e, `MATCH (a), (b) WHERE id(a) = 2 AND id(b) = 0 CREATE (a)-[:R {w: 2}]->(b)`, nil)
	mustQuery(t, e, `MATCH (a), (b) WHERE id(a) = 3 AND id(b) = 0 CREATE (a)-[:R {w: 2}]->(b)`, nil)
	mustQuery(t, e, `MATCH (a), (b) WHERE id(a) = 1 AND id(b) = 2 CREATE (a)-[:R {w: 1}]->(b)`, nil)
	mustQuery(t, e, `MATCH (a), (b) WHERE id(a) = 2 AND id(b) = 3 CREATE (a)-[:R {w: 1}]->(b)`, nil)
	mustQuery(t, e, `MATCH (a), (b) WHERE id(a) = 3 AND id(b) = 1 CREATE (a)-[:R {w: 1}]->(b)`, nil)
	if err := e.Sys.Aion.WaitSync(); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestGDSPageRank(t *testing.T) {
	e := gdsEngine(t)
	ts := e.Sys.Host.Clock()
	res := mustQuery(t, e, `CALL aion.gds.pagerank($ts, 3)`,
		params(t, "ts", int64(ts)))
	if len(res.Rows) != 3 {
		t.Fatalf("topK rows = %d", len(res.Rows))
	}
	if res.Rows[0][0].S.Int() != 0 {
		t.Errorf("hub must rank first, got node %v", res.Rows[0][0])
	}
	// Ranks descending.
	if res.Rows[0][1].S.Float() < res.Rows[1][1].S.Float() {
		t.Error("ranks not sorted")
	}
}

func TestGDSWCC(t *testing.T) {
	e := gdsEngine(t)
	ts := e.Sys.Host.Clock()
	res := mustQuery(t, e, `CALL aion.gds.wcc($ts)`, params(t, "ts", int64(ts)))
	// 0..3 connected, node 4 isolated: two components.
	if len(res.Rows) != 2 {
		t.Fatalf("components = %d", len(res.Rows))
	}
	if res.Rows[0][1].S.Int() != 4 || res.Rows[1][1].S.Int() != 1 {
		t.Errorf("component sizes: %v, %v", res.Rows[0][1], res.Rows[1][1])
	}
}

func TestGDSTriangles(t *testing.T) {
	e := gdsEngine(t)
	ts := e.Sys.Host.Clock()
	res := mustQuery(t, e, `CALL aion.gds.triangleCount($ts)`, params(t, "ts", int64(ts)))
	// Triangles: 1-2-3 plus 1-2-0, 2-3-0, 3-1-0 through the hub = 4.
	if res.Rows[0][0].S.Int() != 4 {
		t.Errorf("triangles = %v", res.Rows[0][0])
	}
}

func TestGDSBFSAndSSSP(t *testing.T) {
	e := gdsEngine(t)
	ts := e.Sys.Host.Clock()
	res := mustQuery(t, e, `CALL aion.gds.bfs(1, $ts)`, params(t, "ts", int64(ts)))
	// From 1: reaches 1(0), 2(1), 0(1), 3(2).
	if len(res.Rows) != 4 {
		t.Fatalf("bfs rows = %d", len(res.Rows))
	}
	res = mustQuery(t, e, `CALL aion.gds.sssp(1, $ts, 'w')`, params(t, "ts", int64(ts)))
	dist := map[int64]float64{}
	for _, row := range res.Rows {
		dist[row[0].S.Int()] = row[1].S.Float()
	}
	if dist[0] != 2 { // direct hub edge w=2
		t.Errorf("dist[0] = %v", dist[0])
	}
	if dist[3] != 2 { // 1->2->3 with w=1 each
		t.Errorf("dist[3] = %v", dist[3])
	}
}

func TestGDSLCC(t *testing.T) {
	e := gdsEngine(t)
	ts := e.Sys.Host.Clock()
	res := mustQuery(t, e, `CALL aion.gds.lcc(1, $ts)`, params(t, "ts", int64(ts)))
	// Node 1's neighbours {0, 2, 3}: links among them 2-3, 2-0, 3-0 = 3 of
	// 6 ordered pairs counted twice -> coefficient 1.0? Neighbour links:
	// (2,3), (2,0), (3,0) all present => 3 undirected links / 3 possible.
	lcc := res.Rows[0][0].S.Float()
	if math.Abs(lcc-1.0) > 1e-9 {
		t.Errorf("lcc = %v", lcc)
	}
	// The hub's neighbours {1, 2, 3} are linked pairwise; a second link of
	// the pair (1, 2), the other way, leaves its coefficient at 1.
	mustQuery(t, e, `MATCH (a), (b) WHERE id(a) = 2 AND id(b) = 1 CREATE (a)-[:R {w: 1}]->(b)`, nil)
	if err := e.Sys.Aion.WaitSync(); err != nil {
		t.Fatal(err)
	}
	for _, at := range []int64{int64(ts), int64(e.Sys.Host.Clock())} {
		res = mustQuery(t, e, `CALL aion.gds.lcc(0, $ts)`, params(t, "ts", at))
		if lcc := res.Rows[0][0].S.Float(); lcc != 1 {
			t.Errorf("hub lcc at %d = %v, want 1", at, lcc)
		}
	}
}

func params(t *testing.T, k string, v int64) map[string]model.Value {
	t.Helper()
	return map[string]model.Value{k: model.IntValue(v)}
}
