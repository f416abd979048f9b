package bench

import (
	"context"
	"fmt"
	"math/rand"

	"aion/internal/aion"
	"aion/internal/baselines/raphtory"
	"aion/internal/datagen"
	"aion/internal/model"
)

// Fig8Row is one Dataset(#hops) group of Fig 8: n-hop throughput for
// Raphtory, LineageStore, and TimeStore, beside the fraction of the graph the
// planner estimates the expansion touches (Sec 5.1 routes it to the TimeStore
// from 30 % on).
type Fig8Row struct {
	Dataset  string
	Hops     int
	Raphtory float64 // ops/s
	Lineage  float64
	Time     float64
	Estimate float64 // aion.GraphStats.EstimateExpandFraction
}

// RunFig8 regenerates Fig 8: n-hop graph accesses starting from random
// nodes, hops in {1, 2, 4, 8}.
func RunFig8(c Config, dir func(string) string, hopsList []int, queriesPerHop int) ([]Fig8Row, error) {
	c.Defaults()
	if len(hopsList) == 0 {
		hopsList = []int{1, 2, 4, 8}
	}
	if queriesPerHop <= 0 {
		queriesPerHop = 5
	}
	var rows []Fig8Row
	t := &table{header: []string{"Dataset(#hops)", "Raphtory (ops/s)", "LineageStore (ops/s)", "TimeStore (ops/s)", "planner est. fraction"}}
	for _, name := range c.Datasets {
		ds := c.genDataset(name, datagen.Options{})
		db, err := loadAion(dir(name), ds)
		if err != nil {
			return nil, err
		}
		raph := raphtory.New()
		raph.IngestAll(ds.Updates)
		rng := rand.New(rand.NewSource(c.Seed + 2))
		starts := make([]model.NodeID, queriesPerHop)
		tss := make([]model.Timestamp, queriesPerHop)
		for i := range starts {
			starts[i] = model.NodeID(rng.Int63n(int64(ds.Spec.Nodes)))
			tss[i] = model.Timestamp(rng.Int63n(int64(ds.MaxTS)) + 1)
		}
		ctx := context.Background()
		for _, hops := range hopsList {
			d, err := measure(timed(func() error {
				for i := range starts {
					raph.NHop(starts[i], model.Outgoing, hops, tss[i])
				}
				return nil
			}), timed(func() error {
				for i := range starts {
					if _, err := aion.Expand(ctx, db.View(ctx, tss[i]), starts[i], model.Outgoing, hops); err != nil {
						return err
					}
				}
				return nil
			}), timed(func() error {
				for i := range starts {
					g, err := db.GraphAtContext(ctx, tss[i])
					if err != nil {
						return err
					}
					if _, err := aion.Expand(ctx, g, starts[i], model.Outgoing, hops); err != nil {
						return err
					}
				}
				return nil
			}))
			if err != nil {
				db.Close()
				return nil, err
			}
			row := Fig8Row{Dataset: name, Hops: hops,
				Raphtory: opsPerSec(queriesPerHop, d[0]),
				Lineage:  opsPerSec(queriesPerHop, d[1]),
				Time:     opsPerSec(queriesPerHop, d[2]),
				Estimate: db.Stats().EstimateExpandFraction(hops, model.Outgoing),
			}
			rows = append(rows, row)
			t.add(fmt.Sprintf("%s(%d)", name, hops), f2(row.Raphtory), f2(row.Lineage), f2(row.Time), fmt.Sprintf("%.3f", row.Estimate))
		}
		db.Close()
	}
	c.emit(t, "Fig 8: n-hop graph accesses")
	return rows, nil
}
