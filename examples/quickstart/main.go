// Quickstart: open a host database with Aion attached, commit transactions,
// and query the graph's history through both temporal Cypher and the
// Table 1 Go API.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"aion/internal/cypher"
	"aion/internal/model"
	"aion/internal/system"
)

func main() {
	ctx := context.Background()
	dir, err := os.MkdirTemp("", "aion-quickstart-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Open a host database with Aion's hybrid temporal store attached.
	// Every committed transaction flows into the TimeStore synchronously
	// and into the LineageStore in the background.
	sys, err := system.Open(system.Options{Dir: dir})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	engine := cypher.NewEngine(sys)

	must := func(q string) *cypher.Result {
		res, err := engine.QueryContext(ctx, q, nil)
		if err != nil {
			log.Fatalf("%s: %v", q, err)
		}
		return res
	}

	// Commit 1: a tiny social graph.
	must(`CREATE (a:Person {name: 'ada'})-[:KNOWS {since: 1840}]->(b:Person {name: 'charles'})`)
	// Commit 2: ada moves up in the world.
	must(`MATCH (a:Person {name: 'ada'}) SET a.title = 'Countess'`)
	// Commit 3: the friendship ends.
	must(`MATCH (a {name: 'ada'})-[r:KNOWS]->(b) DELETE r`)

	// Latest graph: the relationship is gone.
	res := must(`MATCH (a:Person)-[r:KNOWS]->(b) RETURN count(*)`)
	fmt.Println("KNOWS rels now:", res.Rows[0][0])

	// Time travel with temporal Cypher: at commit 1 it existed.
	if err := sys.Aion.WaitSync(); err != nil {
		log.Fatal(err)
	}
	res = must(`USE GDB FOR SYSTEM_TIME AS OF 1 MATCH (a)-[r:KNOWS]->(b) RETURN a.name, b.name`)
	fmt.Println("KNOWS rels at commit 1:", len(res.Rows), "->", res.Rows[0][0], res.Rows[0][1])

	// Node history through the Fig 1a form: one row per version.
	res = must(`USE GDB FOR SYSTEM_TIME BETWEEN 1 AND 100 MATCH (n:Person) WHERE id(n) = 0 RETURN n.title`)
	fmt.Println("ada versions:", len(res.Rows))

	// The same through the Table 1 Go API.
	versions, err := sys.Aion.GetNodeContext(ctx, 0, 0, model.TSInfinity)
	if err != nil {
		log.Fatal(err)
	}
	for _, v := range versions {
		fmt.Printf("  version valid [%d, %v): title=%v\n",
			v.Valid.Start, endStr(v.Valid.End), v.Props["title"])
	}

	// Full snapshot reconstruction via the TimeStore.
	g, err := sys.Aion.GraphAtContext(ctx, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("snapshot at ts 2: %d nodes, %d rels\n", g.NodeCount(), g.RelCount())

	// The diff between two time points (drives incremental algorithms).
	diff, err := sys.Aion.GetDiffContext(ctx, 2, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("updates in [2, 4):")
	for _, u := range diff {
		fmt.Println("  ", u)
	}
}

func endStr(ts model.Timestamp) string {
	if ts == model.TSInfinity {
		return "inf"
	}
	return fmt.Sprint(ts)
}
