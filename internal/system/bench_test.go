package system

import (
	"context"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"

	"aion/internal/aion"
	"aion/internal/btree"
	"aion/internal/datagen"
	"aion/internal/hostdb"
	"aion/internal/model"
	"aion/internal/pagecache"
)

// loadBenchmarkShape builds and cleanly closes a store with the shape
// benchmark/ sets up: the DBLP preset at scale 20 (15 000 nodes, 105 000
// relationships), two property rounds over every node and one over every
// second relationship — 202 500 updates in transactions of 2 000 — with the
// operation snapshot policy at 16 384. It returns the options the serving
// phase reopens with and the number of updates loaded.
func loadBenchmarkShape(b *testing.B) (Options, int) {
	us := datagen.BenchmarkShape(1)
	opts := Options{Dir: b.TempDir(), Aion: aion.Options{SnapshotEveryOps: 16384}}
	s, err := Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	for lo := 0; lo < len(us); lo += 2000 {
		batch := us[lo:min(lo+2000, len(us))]
		_, err := s.Host.Run(func(tx *hostdb.Tx) error {
			for _, u := range batch {
				var err error
				switch u.Kind {
				case model.OpAddNode:
					err = tx.CreateNodeWithID(u.NodeID, u.AddLabels, u.SetProps)
				case model.OpAddRel:
					err = tx.CreateRelWithID(u.RelID, u.Src, u.Tgt, u.RelLabel, u.SetProps)
				case model.OpUpdateNode:
					err = tx.SetNodeProps(u.NodeID, u.SetProps, u.DelProps)
				case model.OpUpdateRel:
					err = tx.SetRelProps(u.RelID, u.SetProps, u.DelProps)
				}
				if err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	opts.SyncCommits = true
	return opts, len(us)
}

// BenchmarkReopen times system.Open + Close of the cleanly closed
// benchmark-shaped store.
func BenchmarkReopen(b *testing.B) {
	opts, updates := loadBenchmarkShape(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(opts)
		if err != nil {
			b.Fatal(err)
		}
		if st := s.Aion.LineageStore().Stats(); st.Updates != uint64(updates) || st.CaughtUp != 0 {
			b.Fatalf("reopened lineage %+v, want %d updates and none re-applied", st, updates)
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// residentProfile names the file BenchmarkResident writes its heap profile
// to. -memprofile cannot serve: it is written at process exit, after the
// store is closed, and the attribution wanted is the open store's.
var residentProfile = flag.String("resident.profile", "", "BenchmarkResident: write a heap profile at the measurement point to this file")

// residentBudget is BenchmarkResident's ceiling in live heap bytes per loaded
// update: one resident copy of the current graph measures 192, 10 % under the
// budget (248 with a 40-byte model.Value, two copies 514, and a per-entity
// label map beside the one copy 273), so a wider Value or a second copy of
// the graph or of its labels creeping back in fails the benchmark.
const residentBudget = 211

// cacheHeapBudget is BenchmarkResident's ceiling, in MiB, on what the snapshot
// cache adds to the live heap once the newest quarter of history has been read
// through benchmark/'s 48 MiB GraphStore: 6.95 with loaded graphs holding the
// latest graph's chunks wherever they hold the same entries (8.0 with a
// 40-byte model.Value), 14.5 when every loaded graph held vectors of its own
// (and 86.6 when it held its own entities too).
const cacheHeapBudget = 7.6

// writeHeapBudget is BenchmarkResident's ceiling, in MiB, on what 65 536
// single-statement commits add to the live heap: 10.8 with a pull costing the
// host the chunks it next writes (13.1 with a 40-byte model.Value), 17.5 when
// it cost a copy of the host's vectors that the policy snapshot then kept (and
// 30.0 when the TimeStore applied each commit to a graph of its own).
const writeHeapBudget = 11.9

// writeCycle commits ingest-commit's four statements, one commit each: create
// a node, set a property on one of the first 512, create a relationship from
// the new node, delete it.
func writeCycle(s *System, i int, nodes int64) error {
	var created model.NodeID
	var rel model.RelID
	steps := []func(tx *hostdb.Tx) (err error){
		func(tx *hostdb.Tx) (err error) {
			created, err = tx.CreateNode([]string{"Bench"}, model.Properties{"k": model.IntValue(int64(i))})
			return err
		},
		func(tx *hostdb.Tx) error {
			return tx.SetNodeProps(model.NodeID(i%512), model.Properties{"w": model.IntValue(int64(i))}, nil)
		},
		func(tx *hostdb.Tx) (err error) {
			rel, err = tx.CreateRel(created, model.NodeID(int64(i)*7919%nodes), "BENCH", nil)
			return err
		},
		func(tx *hostdb.Tx) error { return tx.DeleteRel(rel) },
	}
	for _, step := range steps {
		if _, err := s.Host.Run(step); err != nil {
			return err
		}
	}
	return nil
}

// BenchmarkResident reports what a reopened benchmark-shaped store keeps on
// the heap before it serves anything: benchmark/'s heap_live_mb minus the
// harness (its script, recorder and oracle) and whatever serving adds.
// make heap-budget turns the profile into the by-owner table. A second phase
// then reads a snapshot at every timestamp of the newest quarter, oldest
// first, as snapshot-asof's closing pass does, and reports what the cached
// graphs hold on top. A third runs ingest-commit's write cycle for four policy
// intervals of single-statement commits and reports what they leave behind.
func BenchmarkResident(b *testing.B) {
	opts, updates := loadBenchmarkShape(b)
	opts.Aion.GraphStoreBytes = 48 << 20
	opts.SyncCommits = false // the third phase's 131 072 fsyncs would be most of the run, and hold no heap
	var base, open, read, wrote runtime.MemStats
	for i := 0; i < b.N; i++ {
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&base)
		s, err := Open(opts)
		if err != nil {
			b.Fatal(err)
		}
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&open)
		if *residentProfile != "" && i == b.N-1 {
			f, err := os.Create(*residentProfile)
			if err == nil {
				err = pprof.WriteHeapProfile(f)
				f.Close()
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		ts := s.Aion.TimeStore()
		last := ts.LatestTimestamp()
		for at := last - last/4 + 1; at <= last; at++ {
			if _, err := ts.GetGraph(at); err != nil {
				b.Fatal(err)
			}
		}
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&read)
		st := ts.Stats()
		b.Logf("cached graphs: %d holding %.1f accounted MiB; %d entity versions loaded, %d of them the latest graph's objects",
			st.GraphStore.Snapshots, float64(st.GraphStore.Bytes)/(1<<20), st.LoadedEntities, st.SharedEntities)
		nodes, _ := s.Host.Counts()
		for c := 0; c < 4*16384/4; c++ {
			if err := writeCycle(s, c, int64(nodes)); err != nil {
				b.Fatal(err)
			}
		}
		if err := s.Aion.WaitSync(); err != nil {
			b.Fatal(err)
		}
		ts.WaitSnapshots()
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&wrote)
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
	live := float64(open.HeapAlloc - base.HeapAlloc)
	cache := (float64(read.HeapAlloc) - float64(open.HeapAlloc)) / (1 << 20)
	write := (float64(wrote.HeapAlloc) - float64(read.HeapAlloc)) / (1 << 20)
	b.ReportMetric(live/(1<<20), "heap-MiB")
	b.ReportMetric(live/float64(updates), "heap-B/update")
	b.ReportMetric(cache, "cache-heap-MiB")
	b.ReportMetric(write, "write-heap-MiB")
	if live/float64(updates) > residentBudget {
		b.Fatalf("an open store keeps %.1f heap bytes per update, over the budget of %d", live/float64(updates), residentBudget)
	}
	if cache > cacheHeapBudget {
		b.Fatalf("the cached graphs of the newest quarter keep %.1f MiB on the heap, over the budget of %v", cache, cacheHeapBudget)
	}
	if write > writeHeapBudget {
		b.Fatalf("65 536 single-statement commits add %.1f MiB to the live heap, over the budget of %v", write, writeHeapBudget)
	}
}

// logBudget and chainBudget are BenchmarkDisk's ceilings on the TimeStore's
// log and on its chain — its policy fulls and deltas — in bytes per loaded
// update: with one length+CRC frame per block the shape measures 13.6 and
// 27.5 (one frame per record: 21.6 and 42.7; every element a full: 106).
// lineageBudget is its ceiling on the LineageStore's four trees: 58.4 with
// compact keys and one-byte neighbour values (fixed-width keys: 121.9).
const (
	logBudget     = 14.5
	chainBudget   = 29
	lineageBudget = 75
)

// logTreeRow prints one LineageStore tree of the closed store at dir: its
// file size, entries, mean key and value bytes and fill — the share of the
// file that is entries with their cell header and slot (6 bytes each).
func logTreeRow(b *testing.B, dir, name string, updates int) {
	pc, err := pagecache.Open(filepath.Join(dir, "aion", "lineage", name), 64)
	if err != nil {
		b.Fatal(err)
	}
	defer pc.Close()
	tree, err := btree.Open(pc)
	if err != nil {
		b.Fatal(err)
	}
	var keys, vals float64
	if err := tree.Scan(nil, nil, func(k, v []byte) bool {
		keys, vals = keys+float64(len(k)), vals+float64(len(v))
		return true
	}); err != nil {
		b.Fatal(err)
	}
	n, size := float64(tree.Len()), float64(tree.DiskBytes())
	b.Logf("  %-18s %11.0f B %8.1f B/update  %7.0f entries, key %4.1f B, value %4.1f B, fill %2.0f %%",
		name, size, size/float64(updates), n, keys/n, vals/n, 100*(keys+vals+6*n)/size)
}

// BenchmarkDisk is BenchmarkResident's twin for the disk: what the loaded,
// cleanly closed benchmark-shaped store occupies, by owner, accounted the way
// benchmark/'s disk_bytes is, with one row per LineageStore tree. It fails
// when the TimeStore log, its chain or the LineageStore's trees are over
// their budget, or when the chain directory holds an element file the
// catalogue does not count. make disk-budget runs it.
func BenchmarkDisk(b *testing.B) {
	opts, updates := loadBenchmarkShape(b)
	s, err := Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	host, ts := s.Host.Storage(), s.Aion.TimeStore().Stats()
	_, lineage := s.Aion.DiskBytes()
	if err := s.Close(); err != nil { // untouched since Open: the files stay as loaded
		b.Fatal(err)
	}
	size := func(path string) int64 {
		fi, err := os.Stat(path)
		if err != nil {
			b.Fatal(err)
		}
		return fi.Size()
	}
	elems, err := filepath.Glob(filepath.Join(opts.Dir, "aion", "timestore", "p-*", "*.dsnap"))
	if err != nil {
		b.Fatal(err)
	}
	var fulls, deltas int64
	for _, f := range elems {
		if strings.HasPrefix(filepath.Base(f), "delta-") {
			deltas += size(f)
		} else {
			fulls += size(f)
		}
	}
	if fulls+deltas != ts.SnapshotBytes+ts.ChainBytes {
		b.Fatalf("%d bytes of element files on disk, the catalogue counts %d", fulls+deltas, ts.SnapshotBytes+ts.ChainBytes)
	}
	rows := []struct {
		owner string
		bytes int64
	}{
		{"host records", host.NodeRecords + host.RelRecords + host.PropRecords},
		{"host log", host.TxnLog},
		{"TimeStore log", ts.LogBytes},
		{"TimeStore fulls", fulls},
		{"TimeStore deltas", deltas},
		{"LineageStore trees", lineage},
		{"string tables", host.Strings + size(filepath.Join(opts.Dir, "aion", "strings.db"))},
	}
	var total int64
	for _, r := range rows {
		total += r.bytes
		b.Logf("%-20s %11d B %8.1f B/update", r.owner, r.bytes, float64(r.bytes)/float64(updates))
		if r.owner == "LineageStore trees" {
			for _, name := range []string{"nodes.idx", "rels.idx", "out.idx", "in.idx"} {
				logTreeRow(b, opts.Dir, name, updates)
			}
		}
	}
	b.Logf("%-20s %11d B %8.1f B/update over %d updates, %d policy elements (%d deltas)",
		"total", total, float64(total)/float64(updates), updates, len(elems), ts.DeltaSnapshots)
	log, chain := float64(ts.LogBytes)/float64(updates), float64(fulls+deltas)/float64(updates)
	b.ReportMetric(float64(total)/float64(updates), "disk-B/update")
	b.ReportMetric(log, "log-B/update")
	b.ReportMetric(chain, "chain-B/update")
	if log > logBudget {
		b.Fatalf("the TimeStore log takes %.1f bytes per update, over the budget of %v", log, logBudget)
	}
	if chain > chainBudget {
		b.Fatalf("the TimeStore chain takes %.1f bytes per update, over the budget of %d", chain, chainBudget)
	}
	if per := float64(lineage) / float64(updates); per > lineageBudget {
		b.Fatalf("the LineageStore trees take %.1f bytes per update, over the budget of %d", per, lineageBudget)
	}
}

// expandGetsBudget is BenchmarkExpand1's ceiling on page-cache accesses per
// returned relationship: half of what the read path cost when every link of
// an entity's locality was a descent of its own (6.916, measured at the
// commit before the cursor).
const expandGetsBudget = 6.916 / 2

// BenchmarkExpand1 is point-history's expand class on the LineageStore alone:
// the outgoing relationships of a uniformly drawn node at a uniformly drawn
// commit timestamp of the benchmark-shaped store. Beside ns/op it reports
// nanoseconds and page-cache accesses (hits + misses: a count, exact for a
// fixed -benchtime Nx) per returned relationship, and fails over the budget.
// make expand-budget runs it.
func BenchmarkExpand1(b *testing.B) {
	opts, _ := loadBenchmarkShape(b)
	s, err := Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	ls, last := s.Aion.LineageStore(), int64(s.Aion.TimeStore().LatestTimestamp())
	nodes := int64(datagen.MustPreset("DBLP", 20).Nodes)
	rng, ctx, rels := rand.New(rand.NewSource(1)), context.Background(), 0
	before := ls.Stats().Cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := model.Timestamp(1 + rng.Int63n(last))
		hs, err := ls.GetRelationshipsContext(ctx, model.NodeID(rng.Int63n(nodes)), model.Outgoing, at, at)
		if err != nil {
			b.Fatal(err)
		}
		rels += len(hs)
	}
	b.StopTimer()
	after := ls.Stats().Cache
	gets := float64(after.Hits+after.Misses-before.Hits-before.Misses) / float64(max(rels, 1))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(max(rels, 1)), "ns/rel")
	b.ReportMetric(gets, "gets/rel")
	b.ReportMetric(float64(rels)/float64(b.N), "rels/op")
	if b.N > 1000 && gets > expandGetsBudget {
		b.Fatalf("an expand costs %.2f page-cache accesses per returned relationship, over the budget of %.2f", gets, float64(expandGetsBudget))
	}
}
