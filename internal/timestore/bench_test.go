package timestore

import (
	"context"
	"fmt"
	"testing"
	"time"

	"aion/internal/enc"
	"aion/internal/model"
	"aion/internal/strstore"
	"aion/internal/testkit/benchshape"
)

// benchStoreUpdates is sized so the snapshot and the log tail each cover
// ~55k updates.
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

// BenchmarkSnapshotLoad measures materializing a ~55k-update snapshot file
// from disk: read, CRC, decode and apply in isolation.
func BenchmarkSnapshotLoad(b *testing.B) {
	s, _, _ := buildBenchStore(b)
	s.WaitSnapshots()
	chain := s.seg.elems()
	if len(chain) != 1 {
		b.Fatalf("expected 1 snapshot element, found %d", len(chain))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := s.loadElem(context.Background(), chain, 0, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		if g.NodeCount() == 0 {
			b.Fatal("empty snapshot")
		}
	}
}

// BenchmarkGetGraph measures the full global query: floor snapshot (cached
// in the GraphStore) plus a ~55k-update log-tail replay through ScanRange
// and the frame decode.
func BenchmarkGetGraph(b *testing.B) {
	s, _, lastTS := buildBenchStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := s.GetGraphContext(context.Background(), lastTS)
		if err != nil {
			b.Fatal(err)
		}
		if g.Timestamp() != lastTS {
			b.Fatal("wrong timestamp")
		}
	}
}

// BenchmarkGetDiff measures the pure log-scan path (no graph apply), where
// ScanRange readahead and the frame decode dominate.
func BenchmarkGetDiff(b *testing.B) {
	s, midTS, lastTS := buildBenchStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		err := s.ScanDiffContext(context.Background(), midTS, lastTS, func(model.Update) bool {
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
}

// BenchmarkPolicyPersist times what the snapshot worker spends persisting the
// policy's elements over a load of the benchmark's dataset shape — 202 500
// updates in commits of 2 000, a snapshot due every 16 384 operations, taken
// before the first commit that finds it due, as the policy takes it — with the
// worker's work done inline so the timer sees nothing else. chain=-1 writes
// every element as a full, the cost before the chain took deltas;
// chain=4 is the default. The disk the deltas save must not be bought with
// ingest time: the second must not take longer than the first.
func BenchmarkPolicyPersist(b *testing.B) {
	us := benchshape.Updates(1)
	for i := range us {
		us[i].TS = model.Timestamp(i/2000 + 1)
	}
	for _, chain := range []int{-1, 4} {
		b.Run(fmt.Sprintf("chain=%d", chain), func(b *testing.B) {
			var persist time.Duration
			var st Stats
			for i := 0; i < b.N; i++ {
				s, err := Open(enc.NewCodec(strstore.NewMem()), Options{Dir: b.TempDir(), SnapshotEveryOps: 1 << 30, DeltaChainLength: chain})
				if err != nil {
					b.Fatal(err)
				}
				for lo, due := 0, 0; lo < len(us); lo += 2000 {
					if due >= 16384 {
						due = 0
						t0 := time.Now()
						if err := policySnapshot(s); err != nil {
							b.Fatal(err)
						}
						persist += time.Since(t0)
					}
					batch := us[lo:min(lo+2000, len(us))]
					if err := s.AppendBatch(batch); err != nil {
						b.Fatal(err)
					}
					due += len(batch)
				}
				st = s.Stats()
				if err := s.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(persist.Milliseconds())/float64(b.N), "persist-ms/load")
			b.ReportMetric(float64(st.Snapshots), "elements")
			b.ReportMetric(float64(st.SnapshotBytes)/float64(len(us)), "chain-B/update")
		})
	}
}
