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

// RunFig8 regenerates Fig 8: n-hop graph accesses starting from random
// nodes, hops in {1, 2, 4, 8}; one Dataset(#hops) row each of Raphtory's,
// the LineageStore's and the TimeStore's throughput, beside the fraction of
// the graph the planner estimates the expansion touches (Sec 5.1 routes it to
// the TimeStore from 30 % on).
func RunFig8(c Config, dir func(string) string, hopsList []int, queriesPerHop int) (Table, error) {
	c.Defaults()
	if len(hopsList) == 0 {
		hopsList = []int{1, 2, 4, 8}
	}
	if queriesPerHop <= 0 {
		queriesPerHop = 5
	}
	t := &table{header: []string{"Dataset(#hops)", "Raphtory (ops/s)", "LineageStore (ops/s)", "TimeStore (ops/s)", "planner est. fraction"}}
	for _, name := range c.Datasets {
		ds := c.genDataset(name, datagen.Options{})
		db, err := loadAion(dir(name), ds)
		if err != nil {
			return Table{}, err
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
				return Table{}, err
			}
			t.add(fmt.Sprintf("%s(%d)", name, hops), f2(opsPerSec(queriesPerHop, d[0])), f2(opsPerSec(queriesPerHop, d[1])),
				f2(opsPerSec(queriesPerHop, d[2])), fmt.Sprintf("%.3f", db.Stats().EstimateExpandFraction(hops, model.Outgoing)))
		}
		db.Close()
	}
	return c.emit(t, "Fig 8: n-hop graph accesses"), nil
}
