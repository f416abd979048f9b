package bench

import (
	"context"
	"errors"
	"math/rand"

	"aion/internal/datagen"
	"aion/internal/enc"
	"aion/internal/lineagestore"
	"aion/internal/strstore"
)

// RunFig11 regenerates Fig 11 on the DBLP workload: every relationship
// receives 32 new properties at discrete times, then random point lookups
// measure reconstruction throughput for thresholds {32, 16, 8, 4, 2, 1}, one
// store each, all measured together. The threshold is the delta-chain length
// before a full entity version is written: 32 means "never materialize" for
// the 32-update workload, 1 "materialize on every update"; storage is
// normalized to the first threshold's.
func RunFig11(c Config, dir func(string) string, thresholds []int, chainLen int) (Table, error) {
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
			return Table{}, err
		}
		defer ls.Close()
		if err := errors.Join(ls.ApplyBatch(ds.Updates), ls.ApplyBatch(chain), ls.Flush()); err != nil {
			return Table{}, err
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
		return Table{}, err
	}
	t := &table{header: []string{"chain threshold", "throughput (ops/s)", "storage (KB)", "normalized storage"}}
	for i, th := range thresholds {
		bytes := stores[i].DiskBytes()
		t.add(fi(int64(th)), f1(opsPerSec(ops, d[i])), kb(bytes), f2(float64(bytes)/float64(stores[0].DiskBytes())))
	}
	return c.emit(t, "Fig 11: materialization strategy (history length of deltas)"), nil
}
