package timestore

import (
	"context"
	"fmt"
	"testing"

	"aion/internal/enc"
	"aion/internal/model"
	"aion/internal/pool"
	"aion/internal/strstore"
)

// benchStoreUpdates is sized so the snapshot and the log tail each cover
// >=100k updates (the acceptance workload of the parallel-IO change).
const benchStoreUpdates = 110_000

// buildBenchStore appends benchStoreUpdates updates, snapshotting at the
// midpoint so GetGraph(latest) exercises both halves of the read path: a
// cached mid snapshot plus a ~55k-update log-tail replay.
func buildBenchStore(b *testing.B) (*Store, model.Timestamp, model.Timestamp) {
	b.Helper()
	s := openBenchStore(b)
	us := benchUpdates(benchStoreUpdates)
	mid := len(us) / 2
	if err := s.AppendBatch(us[:mid]); err != nil {
		b.Fatal(err)
	}
	if err := s.CreateSnapshot(); err != nil {
		b.Fatal(err)
	}
	if err := s.AppendBatch(us[mid:]); err != nil {
		b.Fatal(err)
	}
	return s, us[mid-1].TS, us[len(us)-1].TS
}

func openBenchStore(b *testing.B) *Store {
	b.Helper()
	s, err := Open(enc.NewCodec(strstore.NewMem()), Options{
		Dir:              b.TempDir(),
		SnapshotEveryOps: 1 << 30, // snapshots only where the bench places them
		ParallelIO:       1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	return s
}

func benchUpdates(n int) []model.Update {
	us := make([]model.Update, 0, n)
	ts := model.Timestamp(1)
	nodes := n / 2
	for i := 0; i < nodes; i++ {
		us = append(us, model.AddNode(ts, model.NodeID(i),
			[]string{"Person"},
			model.Properties{
				"name": model.StringValue(fmt.Sprintf("node-%d", i)),
				"rank": model.IntValue(int64(i % 1000)),
			}))
		ts++
	}
	for i := 0; len(us) < n; i++ {
		us = append(us, model.AddRel(ts, model.RelID(i),
			model.NodeID(i%nodes), model.NodeID((i+1)%nodes),
			"KNOWS", model.Properties{"w": model.IntValue(int64(i))}))
		ts++
	}
	return us
}

// parallelLevels returns the worker counts benchmarked for the pipeline:
// 1 (inline), 4 (the acceptance point), and GOMAXPROCS.
func parallelLevels() []struct {
	name string
	par  int
} {
	return []struct {
		name string
		par  int
	}{
		{"P1", 1},
		{"P4", 4},
		{fmt.Sprintf("PMAX=%d", pool.DefaultWorkers()), pool.DefaultWorkers()},
	}
}

// BenchmarkSnapshotLoad measures materializing a ~55k-update snapshot file
// from disk: the read+CRC+decode+apply pipeline in isolation.
func BenchmarkSnapshotLoad(b *testing.B) {
	s, _, _ := buildBenchStore(b)
	s.WaitSnapshots()
	chain := s.active().elems()
	if len(chain) != 1 {
		b.Fatalf("expected 1 snapshot element, found %d", len(chain))
	}
	for _, lvl := range parallelLevels() {
		b.Run(lvl.name, func(b *testing.B) {
			s.opts.ParallelIO = lvl.par
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g, err := s.loadElem(context.Background(), chain, 0)
				if err != nil {
					b.Fatal(err)
				}
				if g.NodeCount() == 0 {
					b.Fatal("empty snapshot")
				}
			}
		})
	}
}

// BenchmarkGetGraph measures the full global query: floor snapshot (cached
// in the GraphStore) plus a ~55k-update log-tail replay through ScanBatch
// and the decode stage.
func BenchmarkGetGraph(b *testing.B) {
	s, _, lastTS := buildBenchStore(b)
	for _, lvl := range parallelLevels() {
		b.Run(lvl.name, func(b *testing.B) {
			s.opts.ParallelIO = lvl.par
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g, err := s.GetGraph(lastTS)
				if err != nil {
					b.Fatal(err)
				}
				if g.Timestamp() != lastTS {
					b.Fatal("wrong timestamp")
				}
			}
		})
	}
}

// BenchmarkGetDiff measures the pure log-scan path (no graph apply), where
// ScanBatch readahead dominates.
func BenchmarkGetDiff(b *testing.B) {
	s, midTS, lastTS := buildBenchStore(b)
	for _, lvl := range parallelLevels() {
		b.Run(lvl.name, func(b *testing.B) {
			s.opts.ParallelIO = lvl.par
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				n := 0
				err := s.ScanDiff(midTS, lastTS, func(model.Update) bool {
					n++
					return true
				})
				if err != nil {
					b.Fatal(err)
				}
				if n == 0 {
					b.Fatal("empty diff")
				}
			}
		})
	}
}
