package system

import (
	"cmp"
	"context"
	"encoding/binary"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"

	"aion/internal/aion"
	"aion/internal/btree"
	"aion/internal/datagen"
	"aion/internal/hostdb"
	"aion/internal/memgraph"
	"aion/internal/model"
	"aion/internal/pagecache"
	"aion/internal/testkit/benchshape"
)

// loadBenchmarkShape builds and cleanly closes a store with the shape
// benchmark/ sets up: the DBLP preset at scale 20 (15 000 nodes, 105 000
// relationships), two property rounds over every node and one over every
// second relationship — 202 500 updates in transactions of 2 000 — with the
// operation snapshot policy at 16 384. It returns the options the serving
// phase reopens with and the number of updates loaded.
func loadBenchmarkShape(b *testing.B) (Options, int) {
	us := benchshape.Updates(1)
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
// current graph in immutable records pointing to shared attributes, its
// decoded strings sharing the string table's boxes, no record-store page read
// back by replay and no clean LineageStore page on the heap measures 69.6, and
// the budget is that + 10 % (75.0 with labels or type and property slice in
// every record, 171.7 when every entity was a *model.Node or
// *model.Rel with a property map, 199.4 when on top the reads left their pages
// in heap frames, 192 with replay refilling the record caches and a box per
// decoded string, 248 with a 40-byte model.Value, two copies 514), so property
// maps, a wider Value, a second copy of the graph or tree pages copied to the
// heap creeping back in fail the benchmark.
const residentBudget = 77

// cacheHeapBudget is BenchmarkResident's ceiling, in MiB, on what the snapshot
// cache adds to the live heap once the newest quarter of history has been read
// through benchmark/'s 48 MiB GraphStore: 3.38 with loaded graphs holding the
// latest graph's chunks wherever they hold the same entries, in records that
// point to shared attributes, and the budget is that + 10 % (5.21 with the
// attributes in every record, 6.95 with property maps, 8.0 with a 40-byte
// model.Value on top, 14.5 when every loaded graph held vectors of its own and
// 86.6 when it held its own entities too).
const cacheHeapBudget = 3.7

// writeHeapBudget is BenchmarkResident's ceiling, in MiB, on what 65 536
// single-statement commits add to the live heap of the store reopened after
// the second phase, its GraphStore empty, beyond what the same commits add to
// the bare host, run alone over the directory afterwards: the system gains
// 3.08, the bare host 2.90 (its graph grown by the 16 384 nodes the commits
// create), and Aion's share reads 0.18. The budget is the 1.8 the row had when
// it read 1.63 gross, net of three cached graphs the commits' policy snapshots
// evicted; a graph the snapshot worker leaves cached (5.4 gross) fails it. The
// record-store and LineageStore pages these commits write are the files' own,
// written through their mappings: 11.4 gross when every written page took a
// 4 KiB heap frame until eviction or Close. It was 17.5 gross when a pull cost
// a copy of the host's vectors that the policy snapshot then kept, and 30.0
// when the TimeStore applied each commit to a graph of its own.
const writeHeapBudget = 1.8

// openWriteBudget is BenchmarkResident's ceiling, in MiB, on the open store
// and the commits' gross row together, so the host's own growth stays bounded
// and moving pages from one row to the other nets out: 16.1, and the budget is
// that + 10 % (38.2 with property maps, 44.6 on top with written pages in heap
// frames, 49.9 when the expand reads left theirs there too); it reads 16.5.
const openWriteBudget = 17.7

// writeCycle commits ingest-commit's four statements, one commit each: create
// a node, set a property on one of the first 512, create a relationship from
// the new node, delete it.
func writeCycle(h *hostdb.DB, i int, nodes int64) error {
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
		if _, err := h.Run(step); err != nil {
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
// intervals of single-statement commits and reports what they leave behind,
// net of what the same commits leave behind in the bare host, run on its own
// over the directory afterwards.
func BenchmarkResident(b *testing.B) {
	opts, updates := loadBenchmarkShape(b)
	opts.Aion.GraphStoreBytes = 48 << 20
	opts.SyncCommits = false // the third phase's 131 072 fsyncs would be most of the run, and hold no heap
	var base, open, read, reopened, wrote, bare, bareWrote runtime.MemStats
	var entities int
	var accounted int64
	for i := 0; i < b.N; i++ {
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&base)
		s, err := Open(opts)
		if err != nil {
			b.Fatal(err)
		}
		expandReads(b, s, 20000, model.Outgoing)
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&open)
		s.Host.View(func(g *memgraph.Graph) { entities, accounted = g.NodeCount()+g.RelCount(), g.ApproxBytes() })
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
		b.Logf("cached graphs: %d holding %.1f accounted MiB; %d entity versions loaded, %d of them records shared with the latest graph",
			st.GraphStore.Snapshots, float64(st.GraphStore.Bytes)/(1<<20), st.LoadedEntities, st.SharedEntities)
		// The write row is taken on the store reopened, its GraphStore empty:
		// commits whose policy snapshots evicted the graphs just read would
		// net out what those graphs held.
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		if s, err = Open(opts); err != nil {
			b.Fatal(err)
		}
		ts = s.Aion.TimeStore()
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&reopened)
		nodes, _ := s.Host.Counts()
		for c := 0; c < 4*16384/4; c++ {
			if err := writeCycle(s.Host, c, int64(nodes)); err != nil {
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
		st = ts.Stats()
		b.Logf("after the commits: %d cached graphs holding %.1f accounted MiB", st.GraphStore.Snapshots, float64(st.GraphStore.Bytes)/(1<<20))
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		// The bare host's reference: the same commits through hostdb alone,
		// no Aion attached, on the data the third phase left.
		h, err := hostdb.Open(hostdb.Options{Dir: opts.Dir})
		if err != nil {
			b.Fatal(err)
		}
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&bare)
		nodes, _ = h.Counts()
		for c := 0; c < 4*16384/4; c++ {
			if err := writeCycle(h, c, int64(nodes)); err != nil {
				b.Fatal(err)
			}
		}
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&bareWrote)
		if err := h.Close(); err != nil {
			b.Fatal(err)
		}
	}
	live := float64(open.HeapAlloc - base.HeapAlloc)
	b.Logf("resident: %.1f B per entity over %d entities (Table 3 books 60 B a node, 68 B a relationship and 4 B an adjacency entry: %.1f B per entity here)",
		live/float64(entities), entities, float64(accounted)/float64(entities))
	cache := (float64(read.HeapAlloc) - float64(open.HeapAlloc)) / (1 << 20)
	gross := (float64(wrote.HeapAlloc) - float64(reopened.HeapAlloc)) / (1 << 20)
	host := (float64(bareWrote.HeapAlloc) - float64(bare.HeapAlloc)) / (1 << 20)
	write := gross - host
	b.ReportMetric(live/(1<<20), "heap-MiB")
	b.ReportMetric(live/float64(updates), "heap-B/update")
	b.ReportMetric(live/float64(entities), "heap-B/entity")
	b.ReportMetric(cache, "cache-heap-MiB")
	b.ReportMetric(write, "write-heap-MiB")
	b.ReportMetric(host, "host-write-heap-MiB")
	if live/float64(updates) > residentBudget {
		b.Fatalf("an open store keeps %.1f heap bytes per update, over the budget of %d", live/float64(updates), residentBudget)
	}
	if cache > cacheHeapBudget {
		b.Fatalf("the cached graphs of the newest quarter keep %.1f MiB on the heap, over the budget of %v", cache, cacheHeapBudget)
	}
	if write > writeHeapBudget {
		b.Fatalf("65 536 single-statement commits add %.1f MiB to the live heap beyond the bare host's %.1f, over the budget of %v", write, host, writeHeapBudget)
	}
	if sum := live/(1<<20) + gross; sum > openWriteBudget {
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
// crosses it. lineageBudget is its ceiling on the LineageStore's three trees:
// the 35.5 they measure plus 5 %, with uvarint cell lengths, version records
// that leave out their key's id and timestamp, uvarint refs and the source
// index in memory (41.2 with a rels.idx naming each insertion's source, 43.4
// with relationship versions keyed by id, 47.6 with 4-byte refs too, 52.5
// with the records whole too, 58.4 with 4-byte cell lengths too, 121.9 with
// fixed-width keys). aionShareBudget is its ceiling on what
// Aion — the TimeStore's log, fulls and deltas and the trees — adds to the
// host's records and log: 29.0 % (35.0 % with 4-byte refs, 39.1 % with
// record-carrying deltas too; the paper's Fig 10: 29–41 %).
const (
	logBudget       = 10.5
	chainBudget     = 13.5
	deltasBudget    = 0.1
	lineageBudget   = 37.5
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
	var n, keys, vals, heads float64
	var lb [binary.MaxVarintLen64]byte
	if err := tree.Scan(nil, nil, func(k, v []byte) bool {
		n, keys, vals = n+1, keys+float64(len(k)), vals+float64(len(v))
		heads += float64(2 + binary.PutUvarint(lb[:], uint64(len(k))) + binary.PutUvarint(lb[:], uint64(len(v)))) // slot, lengths
		return true
	}); err != nil {
		b.Fatal(err)
	}
	size := float64(tree.DiskBytes())
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
	if fulls+deltas != ts.SnapshotBytes || deltas != ts.DeltaBytes {
		b.Fatalf("%d + %d bytes of full and delta files on disk, the catalogue counts %d in all, %d of deltas", fulls, deltas, ts.SnapshotBytes, ts.DeltaBytes)
	}
	// Every row is in a running server's /metrics: the files Stats counts are
	// the files on disk.
	aionStrings := size(filepath.Join(opts.Dir, "aion", "strings.db"))
	if aionStrings != ts.StringBytes {
		b.Fatalf("Aion's string table takes %d bytes on disk, timestore.Stats counts %d", aionStrings, ts.StringBytes)
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
		{"string tables", host.Strings + aionStrings},
	}
	var total int64
	for _, r := range rows {
		total += r.bytes
		b.Logf("%-20s %11d B %8.1f B/update", r.owner, r.bytes, float64(r.bytes)/float64(updates))
		if r.owner == "LineageStore trees" {
			for _, name := range []string{"nodes.idx", "outrels.idx", "in.idx"} {
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
// returned relationship: what the outgoing expand costs with each node's
// relationships clustered, versions and all, under it and read in one forward
// pass — one descent and the leaves after it, 0.640 — + 10 %. It was 0.683
// when each relationship's walk sought its window and then its last cell,
// which descended again whenever that cell ended a leaf, 2.722 when every
// relationship the out-neighbour scan returned took a descent of its own into
// a tree keyed by relationship id, and 6.916 before the B+Tree cursor.
const expandGetsBudget = 0.70

// pointGetsBudget is BenchmarkExpand1's ceiling on page-cache accesses per
// version a point relationship read returns: one descent into the cluster the
// in-memory source index names, 4.17, with headroom. It was 7.17 when a
// descent of rels.idx named the cluster first.
const pointGetsBudget = 5.0

// expandReads runs point-history's expand class n times against the
// LineageStore of the benchmark-shaped store s — a uniformly drawn node's
// relationships in direction d at a uniformly drawn commit timestamp — and
// returns how many relationships the reads returned.
func expandReads(b *testing.B, s *System, n int, d model.Direction) int {
	ls, last := s.Aion.LineageStore(), int64(s.Aion.TimeStore().LatestTimestamp())
	shape := datagen.MustPreset("DBLP", 20)
	rng, ctx, rels := rand.New(rand.NewSource(1)), context.Background(), 0
	for i := 0; i < n; i++ {
		at := model.Timestamp(1 + rng.Int63n(last))
		hs, err := ls.GetRelationshipsContext(ctx, model.NodeID(rng.Int63n(int64(shape.Nodes))), d, at, at)
		if err != nil {
			b.Fatal(err)
		}
		rels += len(hs)
	}
	return rels
}

// pointReads reads a uniformly drawn relationship at a uniformly drawn
// commit timestamp n times, as expandReads draws, and returns how many
// versions the reads returned.
func pointReads(b *testing.B, s *System, n int) int {
	ls, last := s.Aion.LineageStore(), int64(s.Aion.TimeStore().LatestTimestamp())
	shape := datagen.MustPreset("DBLP", 20)
	rng, ctx, rels := rand.New(rand.NewSource(1)), context.Background(), 0
	for i := 0; i < n; i++ {
		at := model.Timestamp(1 + rng.Int63n(last))
		rs, err := ls.GetRelationshipContext(ctx, model.RelID(rng.Int63n(int64(shape.Rels))), at, at)
		if err != nil {
			b.Fatal(err)
		}
		rels += len(rs)
	}
	return rels
}

// hubAllocsBudget is BenchmarkExpand1's ceiling on heap allocations per
// relationship a hub expand returns: the version cut from a slab, a property
// map (two allocations) for every second one and the slab's and result
// slices' doublings measure 1.13, and 1.5 leaves room for noise. It was 3.09
// when every version was allocated on its own and a delta decoded into a map
// of its own that was then copied.
const hubAllocsBudget = 1.5

// hubs returns the n nodes with the most outgoing relationships in the host's
// current graph.
func hubs(s *System, n int) []model.NodeID {
	var ids []model.NodeID
	var degree []int
	s.Host.View(func(g *memgraph.Graph) {
		for id := range g.MaxNodeID() {
			ids, degree = append(ids, id), append(degree, len(g.Out(id)))
		}
	})
	slices.SortStableFunc(ids, func(x, y model.NodeID) int { return cmp.Compare(degree[y], degree[x]) })
	return ids[:min(n, len(ids))]
}

// BenchmarkExpand1 is point-history's expand class on the LineageStore alone
// (expandReads, outgoing). Beside ns/op it reports nanoseconds and page-cache
// accesses (hits + misses: a count, exact for a fixed -benchtime Nx) per
// returned relationship, and fails over the budget. After the timed loop it
// reports the accesses per returned relationship of as many incoming expands
// (one in-neighbour scan, then a descent per relationship into its source's
// cluster) and of point relationship reads (the in-memory source index names
// the cluster, then one descent into it), and fails over pointGetsBudget.
// Then it reads as many expands of the 400 nodes with the most outgoing
// relationships, at the last commit, round robin: the uniform draw returns
// ~5 relationships an op, so its ns/rel is mostly the call's own cost, and a
// hub's is the walk's. It reports their hub-ns/rel and allocs/rel, and fails
// over hubAllocsBudget. make expand-budget runs it.
func BenchmarkExpand1(b *testing.B) {
	opts, _ := loadBenchmarkShape(b)
	s, err := Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	ls := s.Aion.LineageStore()
	gets := func(before pagecache.Stats, rels int) float64 {
		after := ls.Stats().Cache
		return float64(after.Hits+after.Misses-before.Hits-before.Misses) / float64(max(rels, 1))
	}
	before := ls.Stats().Cache
	b.ResetTimer()
	rels := expandReads(b, s, b.N, model.Outgoing)
	b.StopTimer()
	outGets := gets(before, rels)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(max(rels, 1)), "ns/rel")
	b.ReportMetric(outGets, "gets/rel")
	b.ReportMetric(float64(rels)/float64(b.N), "rels/op")
	before = ls.Stats().Cache
	b.ReportMetric(gets(before, expandReads(b, s, b.N, model.Incoming)), "in-gets/rel")
	before = ls.Stats().Cache
	pointGets := gets(before, pointReads(b, s, b.N))
	b.ReportMetric(pointGets, "point-gets/rel")
	top, last, rels := hubs(s, 400), s.Aion.TimeStore().LatestTimestamp(), 0
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < b.N; i++ {
		hs, err := ls.GetRelationshipsContext(context.Background(), top[i%len(top)], model.Outgoing, last, last)
		if err != nil {
			b.Fatal(err)
		}
		rels += len(hs)
	}
	took := time.Since(t0)
	runtime.ReadMemStats(&m1)
	hubAllocs := float64(m1.Mallocs-m0.Mallocs) / float64(max(rels, 1))
	b.ReportMetric(float64(took.Nanoseconds())/float64(max(rels, 1)), "hub-ns/rel")
	b.ReportMetric(hubAllocs, "allocs/rel")
	b.ReportMetric(float64(rels)/float64(b.N), "hub-rels/op")
	if b.N > 1000 && outGets > expandGetsBudget {
		b.Fatalf("an expand costs %.2f page-cache accesses per returned relationship, over the budget of %.2f", outGets, float64(expandGetsBudget))
	}
	if b.N > 1000 && hubAllocs > hubAllocsBudget {
		b.Fatalf("a hub expand allocates %.2f times per returned relationship, over the budget of %v", hubAllocs, hubAllocsBudget)
	}
	if b.N > 1000 && pointGets > pointGetsBudget {
		b.Fatalf("a point read costs %.2f page-cache accesses per returned version, over the budget of %.2f", pointGets, float64(pointGetsBudget))
	}
}
