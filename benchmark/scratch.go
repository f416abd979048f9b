package main

import (
	"math/rand"
	"os"
	"runtime"
	"time"

	"aion/internal/aion"
	"aion/internal/btree"
	"aion/internal/enc"
	"aion/internal/lineagestore"
	"aion/internal/memgraph"
	"aion/internal/model"
	"aion/internal/pagecache"
	"aion/internal/strstore"
	"aion/internal/timestore"
	"aion/internal/wal"
)

// scratchProbes times direct calls on fresh instances of the lower layers,
// each fed the load's update stream: what a layer costs with nothing above
// it. The instances live under root and die with it.
func scratchProbes(ds *dataset, root string, opts aion.Options, m *metricSet) error {
	us := ds.stamped()
	payloads, err := encProbe(us, m)
	if err != nil {
		return err
	}
	for _, probe := range []func() error{
		func() error { return walProbe(root, payloads, m) },
		func() error { return btreeProbe(root, us, m) },
		func() error { return memgraphProbe(us, m) },
		func() error { return timestoreProbe(ds, us, root, opts, m) },
		func() error { return lineageProbe(ds, us, root, m) },
		func() error { return aionScratch(ds, us, root, opts, m) },
	} {
		if err := probe(); err != nil {
			return err
		}
	}
	return nil
}

// encProbe encodes and decodes the whole stream against an in-memory string
// table and returns the encoded records.
func encProbe(us []model.Update, m *metricSet) ([][]byte, error) {
	codec := enc.NewCodec(strstore.NewMem())
	n := len(us)
	t0 := time.Now()
	payloads := make([][]byte, n)
	bytes := 0
	for i, u := range us {
		p, err := codec.EncodeUpdate(u)
		if err != nil {
			return nil, err
		}
		payloads[i] = p
		bytes += len(p)
	}
	m.add("enc.encode_ns_per_update", float64(time.Since(t0).Nanoseconds())/float64(n), "ns")
	m.add("enc.bytes_per_update", float64(bytes)/float64(n), "B")

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 = time.Now()
	dst := make([]model.Update, 0, 1024)
	for lo := 0; lo < n; lo += 1024 {
		var err error
		if dst, err = codec.DecodeUpdates(dst[:0], payloads[lo:min(lo+1024, n)]); err != nil {
			return nil, err
		}
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&after)
	m.add("enc.decode_ns_per_update", float64(d.Nanoseconds())/float64(n), "ns")
	m.add("enc.decode_allocs_per_update", float64(after.Mallocs-before.Mallocs)/float64(n), "count")
	return payloads, nil
}

// walProbe times the fsync floor (one record and a Sync) and a batched scan
// of the whole encoded stream.
func walProbe(root string, payloads [][]byte, m *metricSet) error {
	log, err := wal.OpenTemp(root)
	if err != nil {
		return err
	}
	defer log.Close()
	p50, err := timeEach(probeWrites, func(i int) error {
		if _, err := log.Append(payloads[i%len(payloads)]); err != nil {
			return err
		}
		return log.Sync()
	})
	if err != nil {
		return err
	}
	m.add("wal.append_sync_p50_us", float64(p50.Nanoseconds())/1e3, "us")
	if _, err := log.AppendBatch(payloads); err != nil {
		return err
	}
	t0 := time.Now()
	if _, err := log.ScanBatch(0, wal.DefaultReadahead, func([]wal.Frame) bool { return true }); err != nil {
		return err
	}
	m.add("wal.scan_mb_per_s", float64(log.Size())/(1<<20)/time.Since(t0).Seconds(), "MiB/s")
	return nil
}

// btreeProbe builds a tree over a 1 024-page file-backed cache from the
// dataset's LineageStore key population, then reads random keys back.
func btreeProbe(root string, us []model.Update, m *metricSet) error {
	pc, err := pagecache.Open(root+"/scratch.idx", 1024)
	if err != nil {
		return err
	}
	defer pc.Close()
	tree, err := btree.Open(pc)
	if err != nil {
		return err
	}
	keys := make([][]byte, len(us))
	for i, u := range us {
		if u.Kind.IsNodeOp() {
			keys[i] = enc.KeyNode(u.NodeID, u.TS)
		} else {
			keys[i] = enc.KeyRel(u.RelID, u.TS)
		}
	}
	val := make([]byte, 24)
	t0 := time.Now()
	for _, k := range keys {
		if err := tree.Put(k, val); err != nil {
			return err
		}
	}
	m.add("btree.put_ns_per_key", float64(time.Since(t0).Nanoseconds())/float64(len(keys)), "ns")
	before := pc.Stats()
	rng := rand.New(rand.NewSource(1))
	const gets = 50_000
	p50, err := timeEach(gets, func(int) error {
		_, _, err := tree.Get(keys[rng.Intn(len(keys))])
		return err
	})
	if err != nil {
		return err
	}
	after := pc.Stats()
	m.add("btree.get_p50_ns", float64(p50.Nanoseconds()), "ns")
	hits, misses := float64(after.Hits-before.Hits), float64(after.Misses-before.Misses)
	m.add("pagecache.hit_frac", ratio(hits, hits+misses), "fraction")
	m.add("pagecache.evictions_per_kop", float64(after.Evictions-before.Evictions)/(gets/1000), "count")
	return nil
}

// memgraphProbe applies the stream to an empty graph, then times what a
// copy-on-write clone costs once it is written to.
func memgraphProbe(us []model.Update, m *metricSet) error {
	g := memgraph.New()
	t0 := time.Now()
	if err := g.ApplyAll(us); err != nil {
		return err
	}
	m.add("memgraph.apply_ns_per_update", float64(time.Since(t0).Nanoseconds())/float64(len(us)), "ns")
	m.add("memgraph.bytes_per_entity", float64(g.ApproxBytes())/float64(g.NodeCount()+g.RelCount()), "B")
	touch := model.UpdateNode(us[len(us)-1].TS+1, 0, nil, nil, model.Properties{"c": model.IntValue(1)}, nil)
	p50, err := timeEach(21, func(int) error { return g.Clone().Apply(touch) })
	if err != nil {
		return err
	}
	m.add("memgraph.clone_ms", float64(p50.Nanoseconds())/1e6, "ms")
	return nil
}

// timestoreProbe feeds a fresh TimeStore the stream in load-sized batches,
// forces one snapshot and reads the whole diff back.
func timestoreProbe(ds *dataset, us []model.Update, root string, opts aion.Options, m *metricSet) error {
	dir := root + "/timestore"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	ts, err := timestore.Open(enc.NewCodec(strstore.NewMem()), timestore.Options{Dir: dir, SnapshotEveryOps: opts.SnapshotEveryOps})
	if err != nil {
		return err
	}
	defer ts.Close()
	n := len(us)
	t0 := time.Now()
	if err := ds.batches(us, ts.AppendBatch); err != nil {
		return err
	}
	m.add("timestore.append_us_per_update", perUpdateUS(time.Since(t0), n), "us")
	ts.WaitSnapshots()
	m.add("timestore.snapshots_created", float64(ts.Stats().Snapshots), "count")
	t0 = time.Now()
	if err := ts.CreateSnapshot(); err != nil {
		return err
	}
	m.add("timestore.snapshot_create_ms", float64(time.Since(t0).Microseconds())/1e3, "ms")
	t0 = time.Now()
	diff, err := ts.GetDiff(0, us[n-1].TS+1)
	if err != nil {
		return err
	}
	m.add("timestore.get_diff_us_per_update", perUpdateUS(time.Since(t0), len(diff)), "us")
	if err := ts.Flush(); err != nil {
		return err
	}
	st := ts.Stats()
	m.add("timestore.log_bytes_per_update", float64(st.LogBytes)/float64(n), "B")
	m.add("timestore.snapshot_bytes_per_update", float64(st.SnapshotBytes)/float64(n), "B")
	m.add("timestore.index_bytes_per_update", float64(st.IndexBytes)/float64(n), "B")
	return nil
}

// lineageProbe feeds a fresh LineageStore the stream.
func lineageProbe(ds *dataset, us []model.Update, root string, m *metricSet) error {
	dir := root + "/lineage"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	ls, err := lineagestore.Open(enc.NewCodec(strstore.NewMem()), lineagestore.Options{Dir: dir})
	if err != nil {
		return err
	}
	t0 := time.Now()
	if err := ds.batches(us, ls.ApplyBatch); err != nil {
		return err
	}
	m.add("lineagestore.apply_us_per_update", perUpdateUS(time.Since(t0), len(us)), "us")
	if err := ls.Flush(); err != nil {
		return err
	}
	m.add("lineagestore.index_bytes_per_update", float64(ls.DiskBytes())/float64(len(us)), "B")
	return nil
}
