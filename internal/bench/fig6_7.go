package bench

import (
	"context"
	"math/rand"

	"aion/internal/baselines/gradoop"
	"aion/internal/baselines/raphtory"
	"aion/internal/datagen"
)

// RunFig6 regenerates Fig 6: fetching random relationships (point-query
// throughput at arbitrary time points), Aion vs Raphtory.
func RunFig6(c Config, dir func(string) string) (Table, error) {
	c.Defaults()
	t := &table{header: []string{"Dataset", "Aion (ops/s)", "Raphtory (ops/s)", "Raphtory loaded (%)"}}
	for _, name := range c.Datasets {
		ds := c.genDataset(name, datagen.Options{})
		db, err := loadAion(dir(name), ds)
		if err != nil {
			return Table{}, err
		}
		raph := raphtory.New()
		raph.IngestAll(ds.Updates)
		// The same random (relID, ts) pairs drive both systems.
		ids, tss := randRelQueries(rand.New(rand.NewSource(c.Seed)), ds, c.PointOps)
		ls := db.LineageStore()
		d, err := measure(timed(func() error {
			for i := range ids {
				if _, err := ls.GetRelationshipContext(context.Background(), ids[i], tss[i], tss[i]); err != nil {
					return err
				}
			}
			return nil
		}), timed(func() error {
			for i := range ids {
				raph.GetRelationship(ids[i], tss[i])
			}
			return nil
		}))
		db.Close()
		if err != nil {
			return Table{}, err
		}
		t.add(name, f1(opsPerSec(c.PointOps, d[0])), f1(opsPerSec(c.PointOps, d[1])), f1(100*raph.LoadedFraction()))
	}
	return c.emit(t, "Fig 6: fetching random relationships (point queries)"), nil
}

// RunFig7 regenerates Fig 7: fetching random snapshots (global queries).
func RunFig7(c Config, dir func(string) string) (Table, error) {
	c.Defaults()
	t := &table{header: []string{"Dataset", "Aion (ms)", "Raphtory (ms)", "Gradoop (ms)", "Aion vs Raph (x)", "Aion vs Gradoop (x)"}}
	for _, name := range c.Datasets {
		ds := c.genDataset(name, datagen.Options{})
		db, err := loadAion(dir(name), ds)
		if err != nil {
			return Table{}, err
		}
		raph, grad := raphtory.New(), gradoop.New()
		raph.IngestAll(ds.Updates)
		grad.LoadAll(ds.Updates)
		tss := randTimestamps(rand.New(rand.NewSource(c.Seed+1)), c.GlobalOps, ds.MaxTS)
		ts := db.TimeStore()
		d, err := measure(timed(func() error {
			for _, q := range tss {
				if _, err := ts.GetGraphContext(context.Background(), q); err != nil {
					return err
				}
			}
			return nil
		}), timed(func() error {
			for _, q := range tss {
				raph.Snapshot(q)
			}
			return nil
		}), timed(func() error {
			for _, q := range tss {
				grad.Snapshot(q)
			}
			return nil
		}))
		db.Close()
		if err != nil {
			return Table{}, err
		}
		t.add(name, ms(d[0]), ms(d[1]), ms(d[2]), f1(d[1].Seconds()/d[0].Seconds()), f1(d[2].Seconds()/d[0].Seconds()))
	}
	return c.emit(t, "Fig 7: fetching random snapshots (global queries)"), nil
}
