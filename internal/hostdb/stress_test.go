package hostdb

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"aion/internal/memgraph"
	"aion/internal/model"
	"aion/internal/testkit/vfstest"
)

// TestStressGroupCommitConcurrency hammers the commit pipeline with many
// synchronous committers while readers scan the current graph, asserting
// the pipeline's ordering contract under the race detector: commit
// timestamps are dense and unique, after-commit listeners fire in strictly
// increasing timestamp order, and every acked commit was delivered to the
// listener before Commit returned.
func TestStressGroupCommitConcurrency(t *testing.T) {
	const (
		committers = 8
		perWorker  = 40
	)
	// The in-memory FaultFS (no faults armed) keeps the full durability
	// path — batch appends, the strings-sync + log-sync pair — while its
	// microsecond fsyncs let the race detector interleave aggressively
	// instead of idling on disk.
	db, err := Open(Options{FS: vfstest.NewFaultFS(), SyncCommits: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	// Listener-side record: must be strictly increasing, one call per tx.
	var (
		listenerMu sync.Mutex
		lastTS     model.Timestamp
		delivered  = make(map[model.Timestamp]bool)
	)
	db.OnCommit(func(ts model.Timestamp, us []model.Update) {
		listenerMu.Lock()
		defer listenerMu.Unlock()
		if ts <= lastTS {
			t.Errorf("listener ts %d after %d: not strictly increasing", ts, lastTS)
		}
		lastTS = ts
		if len(us) == 0 || us[0].TS != ts {
			t.Errorf("listener ts %d got %d updates, first stamped %v", ts, len(us), us)
		}
		delivered[ts] = true
	})

	var stop atomic.Bool
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for !stop.Load() {
				db.Counts()
				db.View(func(g *memgraph.Graph) { _ = g.NodeCount() })
				// Unthrottled spinning starves the committers' channel
				// wake-ups under the race detector's serialized scheduler.
				runtime.Gosched()
			}
		}()
	}

	seen := make([]map[model.Timestamp]bool, committers)
	var wg sync.WaitGroup
	for w := 0; w < committers; w++ {
		seen[w] = make(map[model.Timestamp]bool)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tx := db.Begin()
				if _, err := tx.CreateNode([]string{"S"},
					model.Properties{"w": model.IntValue(int64(w))}); err != nil {
					t.Error(err)
					return
				}
				ts, err := tx.Commit()
				if err != nil {
					t.Error(err)
					return
				}
				// Listener order is part of the commit contract: by the
				// time Commit returns, this tx's listeners have fired.
				listenerMu.Lock()
				ok := delivered[ts]
				listenerMu.Unlock()
				if !ok {
					t.Errorf("commit ts=%d returned before listener delivery", ts)
				}
				seen[w][ts] = true
			}
		}(w)
	}
	wg.Wait()
	stop.Store(true)
	readers.Wait()
	if t.Failed() {
		return
	}

	// Timestamps are dense and unique across all committers.
	total := committers * perWorker
	all := make(map[model.Timestamp]int)
	for w := range seen {
		for ts := range seen[w] {
			all[ts]++
		}
	}
	if len(all) != total {
		t.Fatalf("%d distinct timestamps for %d commits", len(all), total)
	}
	for ts := model.Timestamp(1); ts <= model.Timestamp(total); ts++ {
		if all[ts] != 1 {
			t.Fatalf("ts=%d assigned %d times", ts, all[ts])
		}
	}
	if db.Clock() != model.Timestamp(total) {
		t.Fatalf("clock %d, want %d", db.Clock(), total)
	}

	st := db.Stats()
	if st.Commits != int64(total) {
		t.Fatalf("stats report %d commits, want %d", st.Commits, total)
	}
	if st.MaxBatch < 1 {
		t.Errorf("max batch %d, want >= 1", st.MaxBatch)
	}
	// Coalescing is timing-dependent (the in-memory fsyncs leave almost no
	// window for the queue to build up), so it is reported, not asserted;
	// the commit-throughput bench asserts it where fsyncs are real.
	t.Logf("%d commits in %d batches (max %d), %.2f fsyncs/commit",
		st.Commits, st.Batches, st.MaxBatch, float64(st.Fsyncs)/float64(st.Commits))
}
