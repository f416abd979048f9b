package bench

import (
	"context"
	"math/rand"

	"aion/internal/datagen"
	"aion/internal/enc"
	"aion/internal/lineagestore"
	"aion/internal/strstore"
)

// Fig11Row is one point of Fig 11: the delta-materialization sweep. The
// threshold is the delta-chain length before a full entity version is
// written; 32 means "never materialize" for the 32-update workload, 1 means
// "materialize on every update".
type Fig11Row struct {
	Threshold       int
	OpsPerSec       float64
	StorageBytes    int64
	StorageOverhead float64 // normalized to the never-materialize run
}

// RunFig11 regenerates Fig 11 on the DBLP workload: every relationship
// receives 32 new properties at discrete times, then random point lookups
// measure reconstruction throughput for thresholds {32, 16, 8, 4, 2, 1}, one
// store each, all measured together.
func RunFig11(c Config, dir func(string) string, thresholds []int, chainLen int) ([]Fig11Row, error) {
	c.Defaults()
	if len(thresholds) == 0 {
		thresholds = []int{32, 16, 8, 4, 2, 1}
	}
	if chainLen <= 0 {
		chainLen = 32
	}
	ds := c.genDataset("DBLP", datagen.Options{})
	chain := ds.PropertyUpdateChain(chainLen)
	ops := max(c.PointOps, 2000)
	ids, tss := randRelQueries(rand.New(rand.NewSource(c.Seed)), ds, ops)

	stores := make([]*lineagestore.Store, len(thresholds))
	sides := make([]side, len(thresholds))
	for i, th := range thresholds {
		storeTh := th
		if th >= chainLen {
			storeTh = -1 // never materialize
		}
		ls, err := lineagestore.Open(enc.NewCodec(strstore.NewMem()), lineagestore.Options{
			Dir:            dir(fi(int64(th))),
			ChainThreshold: storeTh,
		})
		if err != nil {
			return nil, err
		}
		defer ls.Close()
		if err := ls.ApplyBatch(ds.Updates); err != nil {
			return nil, err
		}
		if err := ls.ApplyBatch(chain); err != nil {
			return nil, err
		}
		if err := ls.Flush(); err != nil {
			return nil, err
		}
		stores[i] = ls
		sides[i] = timed(func() error {
			for k := range ids {
				if _, err := ls.GetRelationshipContext(context.Background(), ids[k], tss[k], tss[k]); err != nil {
					return err
				}
			}
			return nil
		})
	}
	d, err := measure(sides...)
	if err != nil {
		return nil, err
	}
	var rows []Fig11Row
	t := &table{header: []string{"chain threshold", "throughput (ops/s)", "storage (MB)", "normalized storage"}}
	for i, th := range thresholds {
		row := Fig11Row{Threshold: th, OpsPerSec: opsPerSec(ops, d[i]), StorageBytes: stores[i].DiskBytes()}
		row.StorageOverhead = float64(row.StorageBytes) / float64(stores[0].DiskBytes())
		rows = append(rows, row)
		t.add(fi(int64(th)), f1(row.OpsPerSec), mb(row.StorageBytes), f2(row.StorageOverhead))
	}
	c.emit(t, "Fig 11: materialization strategy (history length of deltas)")
	return rows, nil
}
