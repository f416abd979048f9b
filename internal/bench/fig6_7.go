package bench

import (
	"context"
	"math/rand"

	"aion/internal/baselines/gradoop"
	"aion/internal/baselines/raphtory"
	"aion/internal/datagen"
)

// Fig6Row is one bar pair of Fig 6: point-query throughput (random
// relationship fetches at arbitrary time points), Aion vs Raphtory.
type Fig6Row struct {
	Dataset            string
	AionOpsPerSec      float64
	RaphtoryOpsPerSec  float64
	RaphtoryLoadedFrac float64
}

// RunFig6 regenerates Fig 6: fetching random relationships.
func RunFig6(c Config, dir func(string) string) ([]Fig6Row, error) {
	c.Defaults()
	var rows []Fig6Row
	t := &table{header: []string{"Dataset", "Aion (ops/s)", "Raphtory (ops/s)", "Raphtory loaded (%)"}}
	for _, name := range c.Datasets {
		ds := c.genDataset(name, datagen.Options{})
		db, err := loadAion(dir(name), ds)
		if err != nil {
			return nil, err
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
			return nil, err
		}
		row := Fig6Row{
			Dataset:            name,
			AionOpsPerSec:      opsPerSec(c.PointOps, d[0]),
			RaphtoryOpsPerSec:  opsPerSec(c.PointOps, d[1]),
			RaphtoryLoadedFrac: raph.LoadedFraction(),
		}
		rows = append(rows, row)
		t.add(name, f1(row.AionOpsPerSec), f1(row.RaphtoryOpsPerSec), f1(100*row.RaphtoryLoadedFrac))
	}
	c.emit(t, "Fig 6: fetching random relationships (point queries)")
	return rows, nil
}

// Fig7Row is one group of Fig 7: runtime to fetch random full snapshots.
type Fig7Row struct {
	Dataset     string
	AionSec     float64
	RaphtorySec float64
	GradoopSec  float64
}

// RunFig7 regenerates Fig 7: fetching random snapshots (global queries).
func RunFig7(c Config, dir func(string) string) ([]Fig7Row, error) {
	c.Defaults()
	var rows []Fig7Row
	t := &table{header: []string{"Dataset", "Aion (ms)", "Raphtory (ms)", "Gradoop (ms)", "Aion vs Raph (x)", "Aion vs Gradoop (x)"}}
	for _, name := range c.Datasets {
		ds := c.genDataset(name, datagen.Options{})
		db, err := loadAion(dir(name), ds)
		if err != nil {
			return nil, err
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
			return nil, err
		}
		row := Fig7Row{Dataset: name, AionSec: d[0].Seconds(), RaphtorySec: d[1].Seconds(), GradoopSec: d[2].Seconds()}
		rows = append(rows, row)
		t.add(name, ms(d[0]), ms(d[1]), ms(d[2]), f1(row.RaphtorySec/row.AionSec), f1(row.GradoopSec/row.AionSec))
	}
	c.emit(t, "Fig 7: fetching random snapshots (global queries)")
	return rows, nil
}
