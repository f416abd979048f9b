package bench

import (
	"errors"
	"path/filepath"
	"time"

	"aion/internal/aion"
	"aion/internal/datagen"
	"aion/internal/enc"
	"aion/internal/hostdb"
	"aion/internal/lineagestore"
	"aion/internal/model"
	"aion/internal/strstore"
	"aion/internal/system"
	"aion/internal/timestore"
	"aion/internal/vfs"
)

// RunFig9 regenerates Fig 9: normalized ingestion throughput for TS+LS,
// LineageStore-only, and TimeStore-only against the bare host (whose ops/s
// is the normalizer; 1.0 = no slower than it). Every run
// loads the dataset into a fresh host through transactions of batchSize
// updates from parallel writers (Sec 6.4: batches with 32 client threads),
// each commit durable; only the load is timed. The three temporal sides are
// composed here, not in Aion: one commit listener writes the side's stores
// on the commit path, as Aion writes its TimeStore.
func RunFig9(c Config, dir func(string) string, batchSize, writers int) (Table, error) {
	c.Defaults()
	if batchSize <= 0 {
		batchSize = 1000
	}
	if writers <= 0 {
		writers = 8
	}
	t := &table{header: []string{"Dataset", "baseline (ops/s)", "TS+LS", "LineageStore", "TimeStore"}}
	for _, name := range c.Datasets {
		ds := c.genDataset(name, datagen.Options{})
		ingest := func(timeStore, lineage bool) side {
			return func() (time.Duration, error) {
				d := dir(name)
				host, err := hostdb.Open(hostdb.Options{Dir: d, SyncCommits: true})
				if err != nil {
					return 0, err
				}
				closeStores := func() error { return nil }
				if timeStore || lineage {
					if closeStores, err = attachStores(host, filepath.Join(d, "aion"), timeStore, lineage); err != nil {
						return 0, errors.Join(err, host.Close())
					}
				}
				took, err := replay(host, ds, batchSize, writers)
				return took, errors.Join(err, host.Close(), closeStores())
			}
		}
		d, err := measure(ingest(false, false), ingest(true, true), ingest(false, true), ingest(true, false))
		if err != nil {
			return Table{}, err
		}
		norm := func(i int) string { return f2(d[0].Seconds() / d[i].Seconds()) }
		t.add(name, f1(opsPerSec(len(ds.Updates), d[0])), norm(1), norm(2), norm(3))
	}
	return c.emit(t, "Fig 9: ingestion overhead (normalized throughput; 1.0 = no temporal store)"), nil
}

// attachStores opens the temporal side of a Fig 9 bar under dir — a
// stand-alone TimeStore and/or LineageStore over one string table — and
// registers a host commit listener that writes them on the commit path, as
// Aion writes its TimeStore. The TimeStore borrows the host's graph and takes
// no policy snapshots. The func returned closes the stores and reports the
// first failed write.
func attachStores(host *hostdb.DB, dir string, timeStore, lineage bool) (func() error, error) {
	for _, sub := range []string{"timestore", "lineage"} {
		if err := vfs.MkdirAll(vfs.OS, filepath.Join(dir, sub)); err != nil {
			return nil, err
		}
	}
	strings, err := strstore.OpenFS(vfs.OS, filepath.Join(dir, "strings.db"))
	if err != nil {
		return nil, err
	}
	codec := enc.NewCodec(strings)
	var writes []func([]model.Update) error
	closes := []func() error{strings.Close}
	closeAll := func() (err error) {
		for i := len(closes) - 1; i >= 0; i-- { // the strings last
			err = errors.Join(err, closes[i]())
		}
		return err
	}
	if timeStore {
		ts, err := timestore.Open(codec, timestore.Options{Dir: filepath.Join(dir, "timestore"),
			SnapshotEveryOps: -1, Host: host.Committed})
		if err != nil {
			return nil, errors.Join(err, closeAll())
		}
		writes, closes = append(writes, ts.AppendBatch), append(closes, ts.Close)
	}
	if lineage {
		ls, err := lineagestore.Open(codec, lineagestore.Options{Dir: filepath.Join(dir, "lineage")})
		if err != nil {
			return nil, errors.Join(err, closeAll())
		}
		writes, closes = append(writes, ls.ApplyBatch), append(closes, ls.Close)
	}
	var failed error // the first failed write; nothing is written after it
	host.OnCommit(func(_ model.Timestamp, us []model.Update) {
		for _, write := range writes {
			if failed == nil {
				failed = write(us)
			}
		}
	})
	return func() error { return errors.Join(failed, closeAll()) }, nil
}

// RunFig10 regenerates Fig 10: temporal storage overhead on disk, by
// component — the host's records, property chains and retained txn logs
// (Neo4j), the TimeStore's log and snapshots, the LineageStore's trees — and
// what the two temporal stores add to the host, in percent.
func RunFig10(c Config, dir func(string) string) (Table, error) {
	c.Defaults()
	t := &table{header: []string{"Dataset", "Neo4j (KB)", "TimeStore (KB)", "LineageStore (KB)", "overhead (%)"}}
	for _, name := range c.Datasets {
		// Real graphs carry properties; give relationships one, as the
		// host's property records and txn-log images are a large part of
		// Neo4j's footprint.
		ds := c.genDataset(name, datagen.Options{RelWeightProp: "w"})
		sys, _, err := loadHosted(system.Options{Dir: dir(name),
			Aion: aion.Options{SnapshotEveryOps: len(ds.Updates)/2 + 1}}, ds, 1000, 1)
		if err != nil {
			return Table{}, err
		}
		sys.Aion.TimeStore().WaitSnapshots()
		if err := sys.Flush(); err != nil {
			sys.Close()
			return Table{}, err
		}
		host := sys.Host.Storage().Total() + sys.Host.IndexAndMetadataBytes()
		tsBytes, lsBytes := sys.Aion.DiskBytes()
		t.add(name, kb(host), kb(tsBytes), kb(lsBytes), f1(100*float64(tsBytes+lsBytes)/float64(host)))
		sys.Close()
	}
	return c.emit(t, "Fig 10: temporal storage overhead (on disk)"), nil
}
