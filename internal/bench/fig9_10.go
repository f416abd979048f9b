package bench

import (
	"sync"

	"aion/internal/aion"
	"aion/internal/datagen"
	"aion/internal/hostdb"
	"aion/internal/model"
	"aion/internal/system"
)

// Fig9Row is one dataset group of Fig 9: ingestion throughput of each
// temporal-store configuration, normalized to the bare host database.
type Fig9Row struct {
	Dataset  string
	Baseline float64 // host-only ops/s (the normalizer)
	TSLS     float64 // both stores synchronous, normalized
	Lineage  float64 // LineageStore only, normalized
	Time     float64 // TimeStore only, normalized
}

// ingestThroughput loads the dataset through host transactions with the
// given temporal configuration, batching updates per transaction and using
// parallel writer threads (Sec 6.4: batches with 32 client threads).
func ingestThroughput(ds *datagen.Dataset, mode aion.SyncMode, disabled bool,
	dir string, batchSize, writers int) (float64, error) {
	sys, err := system.Open(system.Options{
		Dir:             dir,
		DisableTemporal: disabled,
		SyncCommits:     true, // realistic per-commit durability cost
		Aion:            aion.Options{Mode: mode, SnapshotEveryOps: 1 << 30},
	})
	if err != nil {
		return 0, err
	}
	defer sys.Close()

	// Partition the update stream into batches; writers pull batches from
	// a channel and commit them as transactions. The host serializes
	// commits, so relative throughput reflects per-commit temporal cost.
	batches := make(chan []model.Update, writers*2)
	go func() {
		for lo := 0; lo < len(ds.Updates); lo += batchSize {
			hi := lo + batchSize
			if hi > len(ds.Updates) {
				hi = len(ds.Updates)
			}
			batches <- ds.Updates[lo:hi]
		}
		close(batches)
	}()
	var wg sync.WaitGroup
	var firstErr error
	var errMu sync.Mutex
	dur := timeIt(func() {
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for batch := range batches {
					_, err := sys.Host.Run(func(tx *hostdb.Tx) error {
						return replayBatch(tx, batch)
					})
					if err != nil {
						errMu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						errMu.Unlock()
						return
					}
				}
			}()
		}
		wg.Wait()
	})
	if firstErr != nil {
		return 0, firstErr
	}
	return opsPerSec(len(ds.Updates), dur), nil
}

// replayBatch re-issues a generated update batch through a transaction.
// Generated ids are dense and line up with the host's id allocator when
// batches arrive in order; out-of-order arrival only reorders timestamps,
// which is harmless for a throughput measurement, so conflicts (an endpoint
// not yet created by another writer's batch) are tolerated by retry-free
// skipping.
func replayBatch(tx *hostdb.Tx, batch []model.Update) error {
	for _, u := range batch {
		var err error
		switch u.Kind {
		case model.OpAddNode:
			if tx.Node(u.NodeID) != nil {
				continue // created by a reordered batch
			}
			err = tx.CreateNodeWithID(u.NodeID, u.AddLabels, u.SetProps)
		case model.OpAddRel:
			if tx.Node(u.Src) == nil || tx.Node(u.Tgt) == nil || tx.Rel(u.RelID) != nil {
				continue // endpoint committed by a later batch; skip
			}
			err = tx.CreateRelWithID(u.RelID, u.Src, u.Tgt, u.RelLabel, u.SetProps)
		case model.OpUpdateNode:
			if tx.Node(u.NodeID) == nil {
				continue
			}
			err = tx.SetNodeProps(u.NodeID, u.SetProps, u.DelProps)
		case model.OpUpdateRel:
			if tx.Rel(u.RelID) == nil {
				continue
			}
			err = tx.SetRelProps(u.RelID, u.SetProps, u.DelProps)
		case model.OpDeleteRel:
			if tx.Rel(u.RelID) == nil {
				continue
			}
			err = tx.DeleteRel(u.RelID)
		case model.OpDeleteNode:
			if tx.Node(u.NodeID) == nil {
				continue
			}
			err = tx.DeleteNode(u.NodeID)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// RunFig9 regenerates Fig 9: normalized ingestion throughput for TS+LS,
// LineageStore-only, and TimeStore-only against the bare host.
func RunFig9(c Config, dir func(string) string, batchSize, writers int) ([]Fig9Row, error) {
	c.Defaults()
	if batchSize <= 0 {
		batchSize = 1000
	}
	if writers <= 0 {
		writers = 8
	}
	var rows []Fig9Row
	t := &table{header: []string{"Dataset", "baseline ops/s", "TS+LS", "LineageStore", "TimeStore"}}
	for _, name := range c.Datasets {
		ds := c.genDataset(name, datagen.Options{})
		base, err := ingestThroughput(ds, 0, true, dir(name+"-base"), batchSize, writers)
		if err != nil {
			return nil, err
		}
		both, err := ingestThroughput(ds, aion.SyncBoth, false, dir(name+"-both"), batchSize, writers)
		if err != nil {
			return nil, err
		}
		ls, err := ingestThroughput(ds, aion.SyncLineageOnly, false, dir(name+"-ls"), batchSize, writers)
		if err != nil {
			return nil, err
		}
		tsOnly, err := ingestThroughput(ds, aion.SyncTimeStoreOnly, false, dir(name+"-ts"), batchSize, writers)
		if err != nil {
			return nil, err
		}
		row := Fig9Row{Dataset: name, Baseline: base,
			TSLS: both / base, Lineage: ls / base, Time: tsOnly / base}
		rows = append(rows, row)
		t.add(name, f1(base), f2(row.TSLS), f2(row.Lineage), f2(row.Time))
	}
	t.print(c.Out, "Fig 9: ingestion overhead (normalized throughput; 1.0 = no temporal store)")
	return rows, nil
}

// Fig10Row is one dataset group of Fig 10: on-disk storage by component.
type Fig10Row struct {
	Dataset       string
	Neo4jBytes    int64   // host records + property chains + retained txn logs
	TimeBytes     int64   // log + snapshots (the fences are memory only)
	LineageBytes  int64   // four B+Trees
	OverheadRatio float64 // (Time+Lineage) / Neo4j
}

// RunFig10 regenerates Fig 10: temporal storage overhead.
func RunFig10(c Config, dir func(string) string) ([]Fig10Row, error) {
	c.Defaults()
	var rows []Fig10Row
	t := &table{header: []string{"Dataset", "Neo4j", "TimeStore", "LineageStore", "overhead"}}
	for _, name := range c.Datasets {
		// Real graphs carry properties; give relationships one, as the
		// host's property records and txn-log images are a large part of
		// Neo4j's footprint.
		ds := c.genDataset(name, datagen.Options{RelWeightProp: "w"})
		sys, err := system.Open(system.Options{
			Dir:  dir(name),
			Aion: aion.Options{Mode: aion.SyncBoth, SnapshotEveryOps: len(ds.Updates)/2 + 1},
		})
		if err != nil {
			return nil, err
		}
		const batch = 1000
		for lo := 0; lo < len(ds.Updates); lo += batch {
			hi := lo + batch
			if hi > len(ds.Updates) {
				hi = len(ds.Updates)
			}
			b := ds.Updates[lo:hi]
			if _, err := sys.Host.Run(func(tx *hostdb.Tx) error { return replayBatch(tx, b) }); err != nil {
				sys.Close()
				return nil, err
			}
		}
		sys.Aion.TimeStore().WaitSnapshots()
		if err := sys.Aion.LineageStore().Flush(); err != nil {
			sys.Close()
			return nil, err
		}
		if err := sys.Aion.TimeStore().Flush(); err != nil {
			sys.Close()
			return nil, err
		}
		host := sys.Host.Storage().Total() + sys.Host.IndexAndMetadataBytes()
		tsBytes, lsBytes := sys.Aion.DiskBytes()
		row := Fig10Row{
			Dataset: name, Neo4jBytes: host,
			TimeBytes: tsBytes, LineageBytes: lsBytes,
			OverheadRatio: float64(tsBytes+lsBytes) / float64(host),
		}
		rows = append(rows, row)
		t.add(name, mb(row.Neo4jBytes), mb(row.TimeBytes), mb(row.LineageBytes),
			f2(row.OverheadRatio*100)+"%")
		sys.Close()
	}
	t.print(c.Out, "Fig 10: temporal storage overhead (on disk)")
	return rows, nil
}
