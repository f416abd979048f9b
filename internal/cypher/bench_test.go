package cypher

import (
	"context"
	"math/rand"
	"testing"

	"aion/internal/hostdb"
	"aion/internal/model"
	"aion/internal/system"
)

// BenchmarkMatchAsOf runs AS OF 41 MATCHes over 4 000 nodes (commit 1) and
// 8 000 relationships of types K and L (commits 2–81, 100 each, seeded
// endpoints; one a commit leaves node 0): the anchored shapes from node 0,
// which the planner serves from
// the LineageStore, and an unanchored count(*) on the snapshot. Beside ns/op
// and allocs/op it reports the TimeStore updates each op replays.
//
//	go test -run '^$' -bench BenchmarkMatchAsOf -benchmem ./internal/cypher/
func BenchmarkMatchAsOf(b *testing.B) {
	sys, err := system.Open(system.Options{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	e := NewEngine(sys)
	rng := rand.New(rand.NewSource(1))
	if _, err := sys.Host.Run(func(tx *hostdb.Tx) error {
		for id := 0; id < 4000; id++ {
			if err := tx.CreateNodeWithID(model.NodeID(id), []string{"N"}, model.Properties{"i": model.IntValue(int64(id))}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	for c := 0; c < 80; c++ {
		if _, err := sys.Host.Run(func(tx *hostdb.Tx) error {
			for i := 0; i < 100; i++ {
				src := model.NodeID(rng.Intn(4000))
				if i == 0 {
					src = 0 // the anchor: one relationship a commit
				}
				if err := tx.CreateRelWithID(model.RelID(100*c+i), src, model.NodeID(rng.Intn(4000)), []string{"K", "L"}[rng.Intn(2)], nil); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
	if err := sys.Aion.WaitSync(); err != nil {
		b.Fatal(err)
	}
	const asOf = `USE GDB FOR SYSTEM_TIME AS OF 41 `
	for _, c := range []struct{ name, q string }{
		{"node", `MATCH (a) WHERE id(a) = 0 RETURN a`},
		{"var1", `MATCH (a)-[*1..1]->(b) WHERE id(a) = 0 RETURN b`},
		{"var2", `MATCH (a)-[*1..2]->(b) WHERE id(a) = 0 RETURN b`},
		{"typed1", `MATCH (a)-[:K*1..1]->(b) WHERE id(a) = 0 RETURN b`},
		{"rel", `MATCH (a)-[r]->(b) WHERE id(a) = 0 RETURN r, b`},
		{"count", `MATCH (a) RETURN count(*)`},
	} {
		b.Run(c.name, func(b *testing.B) {
			res, err := e.QueryContext(context.Background(), asOf+c.q, nil)
			if err != nil || len(res.Rows) == 0 {
				b.Fatalf("%s: %v, %v", c.q, res, err)
			}
			replayed := sys.Aion.TimeStore().Stats().ReplayedUpdates
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.QueryContext(context.Background(), asOf+c.q, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(sys.Aion.TimeStore().Stats().ReplayedUpdates-replayed)/float64(b.N), "replayed/op")
		})
	}
}
