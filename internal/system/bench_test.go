package system

import (
	"context"
	"encoding/binary"
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
// update, measured after 20 000 expand reads: one resident copy of the
// current graph, its decoded strings sharing the string table's boxes, no
// record-store page read back by replay and no clean LineageStore page on the
// heap measures 171.7, and the budget is that + 10 % (199.4 when the reads
// left their pages in heap frames, 192 with replay refilling the record
// caches and a box per decoded string, 248 with a 40-byte model.Value on top,
// two copies 514, and a per-entity label map beside the one copy 273), so a
// wider Value, a second copy of the graph or of its labels, or tree pages
// copied to the heap creeping back in fails the benchmark.
const residentBudget = 189

// cacheHeapBudget is BenchmarkResident's ceiling, in MiB, on what the snapshot
// cache adds to the live heap once the newest quarter of history has been read
// through benchmark/'s 48 MiB GraphStore: 6.95 with loaded graphs holding the
// latest graph's chunks wherever they hold the same entries (8.0 with a
// 40-byte model.Value), 14.5 when every loaded graph held vectors of its own
// (and 86.6 when it held its own entities too).
const cacheHeapBudget = 7.6

// writeHeapBudget is BenchmarkResident's ceiling, in MiB, on what 65 536
// single-statement commits add to the live heap: 5.0 with a pull costing the
// host the chunks it next writes, and the budget is that + 10 %. The
// record-store and LineageStore pages these commits write are the files'
// own, written through their mappings: 11.4 when every written page took a
// 4 KiB heap frame until eviction or Close, which fails it. It was 17.5 when
// a pull cost a copy of the host's vectors that the policy snapshot then
// kept, and 30.0 when the TimeStore applied each commit to a graph of its own.
const writeHeapBudget = 5.5

// openWriteBudget is BenchmarkResident's ceiling, in MiB, on the open store
// and the commits together, where moving pages from one row to the other nets
// out: 38.2, and the budget is that + 10 % (44.6 with written pages in heap
// frames, 49.9 when the expand reads left theirs there too).
const openWriteBudget = 42

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
// the heap once it has served point-history's 20 000 expand reads:
// benchmark/'s heap_live_mb minus the harness (its script, recorder and
// oracle). make heap-budget turns the profile into the by-owner table. A
// second phase
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
		expandReads(b, s, 20000)
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
			if _, err := ts.GetGraphContext(context.Background(), at); err != nil {
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
	if sum := live/(1<<20) + write; sum > openWriteBudget {
		b.Fatalf("the open store and 65 536 commits keep %.1f MiB on the heap, over the budget of %v", sum, openWriteBudget)
	}
}

// logBudget and chainBudget are BenchmarkDisk's ceilings on the TimeStore's
// log and on its chain — its policy fulls and deltas — in bytes per loaded
// update: with one length+CRC frame per block, deltas that are their header
// alone, naming their log window, and string refs written as flagged uvarints,
// the shape measures 9.8 and 12.5 (4-byte refs: 13.6 and 18.1; deltas
// carrying their window's records: 27.5; one frame per record: 21.6 and 42.7;
// every element a full: 106). deltasBudget is its ceiling on the deltas alone:
// 8 headers are 200 B, 0.001 B/update, and a delta that carries records again
// crosses it. lineageBudget is its ceiling on the LineageStore's four trees:
// the 43.4 they measure plus 5 %, with uvarint cell lengths, version records
// that leave out their key's id and timestamp, and uvarint refs (47.6 with
// 4-byte refs, 52.5 with the records whole too, 58.4 with 4-byte cell lengths
// too, 121.9 with fixed-width keys). aionShareBudget is its ceiling on what
// Aion — the TimeStore's log, fulls and deltas and the trees — adds to the
// host's records and log: 29.0 % (35.0 % with 4-byte refs, 39.1 % with
// record-carrying deltas too; the paper's Fig 10: 29–41 %).
const (
	logBudget       = 10.5
	chainBudget     = 13.5
	deltasBudget    = 0.1
	lineageBudget   = 45.5
	aionShareBudget = 0.33
)

// hostRecordBytes and hostLogBytes are what the host's records and log occupy
// on the loaded shape: the denominator of Aion's share (and of the paper's
// Figs 9–10), which keeps the 4-byte refs of the Neo4j store it emulates.
// BenchmarkDisk fails unless they are exactly these, so no change to the
// codec can win Aion's share by moving the host.
const (
	hostRecordBytes = 7_177_500
	hostLogBytes    = 38_720_016
)

// logTreeRow prints one LineageStore tree of the closed store at dir: its
// file size, entries, mean key and value bytes and fill — the share of the
// file that is entries with their cell header (a uvarint length each for key
// and value) and slot.
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
	var keys, vals, heads float64
	var lb [binary.MaxVarintLen64]byte
	if err := tree.Scan(nil, nil, func(k, v []byte) bool {
		keys, vals = keys+float64(len(k)), vals+float64(len(v))
		heads += float64(2 + binary.PutUvarint(lb[:], uint64(len(k))) + binary.PutUvarint(lb[:], uint64(len(v)))) // slot, lengths
		return true
	}); err != nil {
		b.Fatal(err)
	}
	n, size := float64(tree.Len()), float64(tree.DiskBytes())
	b.Logf("  %-18s %11.0f B %8.1f B/update  %7.0f entries, key %4.1f B, value %4.1f B, fill %2.0f %%",
		name, size, size/float64(updates), n, keys/n, vals/n, 100*(keys+vals+heads)/size)
}

// BenchmarkDisk is BenchmarkResident's twin for the disk: what the loaded,
// cleanly closed benchmark-shaped store occupies, by owner, accounted the way
// benchmark/'s disk_bytes is, with one row per LineageStore tree. It fails
// when the TimeStore log, its chain, its deltas or the LineageStore's trees
// are over their budget, when the host's records and log are not the bytes
// they have always been, or when the chain directory holds an element file the
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
	elems, err := filepath.Glob(filepath.Join(opts.Dir, "aion", "timestore", "p-1", "*.dsnap"))
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
	if fulls+deltas != ts.SnapshotBytes {
		b.Fatalf("%d bytes of element files on disk, the catalogue counts %d", fulls+deltas, ts.SnapshotBytes)
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
	aionBytes := ts.LogBytes + fulls + deltas + lineage
	share := float64(aionBytes) / float64(rows[0].bytes+rows[1].bytes)
	b.Logf("%-20s %11d B %8.1f B/update, %.1f %% of the host's records and log", "Aion on the host", aionBytes, float64(aionBytes)/float64(updates), 100*share)
	log, chain := float64(ts.LogBytes)/float64(updates), float64(fulls+deltas)/float64(updates)
	b.ReportMetric(float64(total)/float64(updates), "disk-B/update")
	b.ReportMetric(log, "log-B/update")
	b.ReportMetric(chain, "chain-B/update")
	if rows[0].bytes != hostRecordBytes || rows[1].bytes != hostLogBytes {
		b.Fatalf("the host's records and log take %d + %d bytes, not the %d + %d of the store hostdb emulates", rows[0].bytes, rows[1].bytes, hostRecordBytes, hostLogBytes)
	}
	if log > logBudget {
		b.Fatalf("the TimeStore log takes %.1f bytes per update, over the budget of %v", log, logBudget)
	}
	if chain > chainBudget {
		b.Fatalf("the TimeStore chain takes %.1f bytes per update, over the budget of %v", chain, chainBudget)
	}
	if per := float64(deltas) / float64(updates); per > deltasBudget {
		b.Fatalf("the TimeStore deltas take %.3f bytes per update, over the budget of %v: a delta carries records again", per, deltasBudget)
	}
	if per := float64(lineage) / float64(updates); per > lineageBudget {
		b.Fatalf("the LineageStore trees take %.1f bytes per update, over the budget of %v", per, lineageBudget)
	}
	if share > aionShareBudget {
		b.Fatalf("Aion takes %.1f %% on top of the host's records and log, over the budget of %v %%", 100*share, 100*aionShareBudget)
	}
}

// expandGetsBudget is BenchmarkExpand1's ceiling on page-cache accesses per
// returned relationship: half of what the read path cost when every link of
// an entity's locality was a descent of its own (6.916, measured at the
// commit before the cursor).
const expandGetsBudget = 6.916 / 2

// expandReads runs point-history's expand class n times against the
// LineageStore of the benchmark-shaped store s: the outgoing relationships of
// a uniformly drawn node at a uniformly drawn commit timestamp. It returns
// how many relationships the reads returned.
func expandReads(b *testing.B, s *System, n int) int {
	ls, last := s.Aion.LineageStore(), int64(s.Aion.TimeStore().LatestTimestamp())
	nodes := int64(datagen.MustPreset("DBLP", 20).Nodes)
	rng, ctx, rels := rand.New(rand.NewSource(1)), context.Background(), 0
	for i := 0; i < n; i++ {
		at := model.Timestamp(1 + rng.Int63n(last))
		hs, err := ls.GetRelationshipsContext(ctx, model.NodeID(rng.Int63n(nodes)), model.Outgoing, at, at)
		if err != nil {
			b.Fatal(err)
		}
		rels += len(hs)
	}
	return rels
}

// BenchmarkExpand1 is point-history's expand class on the LineageStore alone
// (expandReads). Beside ns/op it reports nanoseconds and page-cache accesses
// (hits + misses: a count, exact for a fixed -benchtime Nx) per returned
// relationship, and fails over the budget. make expand-budget runs it.
func BenchmarkExpand1(b *testing.B) {
	opts, _ := loadBenchmarkShape(b)
	s, err := Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	ls := s.Aion.LineageStore()
	before := ls.Stats().Cache
	b.ResetTimer()
	rels := expandReads(b, s, b.N)
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
