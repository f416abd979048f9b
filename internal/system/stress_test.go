package system

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"aion/internal/aion"
	"aion/internal/model"
	"aion/internal/vfs"
)

// TestStressConcurrentCommitsWithSnapshots drives the combined system the
// way a live deployment is loaded: many synchronous committers race
// through the host's group-commit pipeline while the after-commit listener
// feeds Aion, a dense operation-count snapshot policy keeps the background
// snapshot worker constantly triggering, and readers query temporal graphs
// at random recent timestamps. Run under the race detector via `make
// stress`. Asserts commit timestamps stay dense and unique and Aion
// converges to exactly the host's committed stream.
func TestStressConcurrentCommitsWithSnapshots(t *testing.T) {
	const (
		committers = 6
		perWorker  = 30
	)
	s, err := Open(Options{
		Dir:         "sys",
		SyncCommits: true,
		FS:          vfs.NewFaultFS(),
		Aion: aion.Options{
			// A snapshot every 20 commits, so the trigger fires throughout
			// the run, racing the committers and readers.
			SnapshotEveryOps: 20,
			ParallelIO:       1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var stop atomic.Bool
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for !stop.Load() {
				if ts := s.Aion.LatestTimestamp(); ts > 0 {
					if g, err := s.Aion.TimeStore().GetGraph(ts); err == nil {
						_ = g.NodeCount()
					}
				}
				runtime.Gosched()
			}
		}()
	}

	var tsMu sync.Mutex
	all := make(map[model.Timestamp]int)
	var wg sync.WaitGroup
	for w := 0; w < committers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tx := s.Host.Begin()
				if _, err := tx.CreateNode([]string{"S"},
					model.Properties{"w": model.IntValue(int64(w*perWorker + i))}); err != nil {
					t.Error(err)
					return
				}
				ts, err := tx.Commit()
				if err != nil {
					t.Error(err)
					return
				}
				tsMu.Lock()
				all[ts]++
				tsMu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	stop.Store(true)
	readers.Wait()
	if t.Failed() {
		return
	}

	total := committers * perWorker
	if len(all) != total {
		t.Fatalf("%d distinct timestamps for %d commits", len(all), total)
	}
	for ts := model.Timestamp(1); ts <= model.Timestamp(total); ts++ {
		if all[ts] != 1 {
			t.Fatalf("ts=%d assigned %d times", ts, all[ts])
		}
	}

	// Aion must converge to the host's exact committed state.
	if err := s.Aion.WaitSync(); err != nil {
		t.Fatal(err)
	}
	s.Aion.TimeStore().WaitSnapshots()
	if got := s.Aion.LatestTimestamp(); got != model.Timestamp(total) {
		t.Fatalf("aion at ts %d, host committed through %d", got, total)
	}
	g, err := s.Aion.TimeStore().GetGraph(model.Timestamp(total))
	if err != nil {
		t.Fatal(err)
	}
	hn, hr := s.Host.Counts()
	if g.NodeCount() != hn || g.RelCount() != hr {
		t.Fatalf("aion graph %d nodes/%d rels, host %d/%d", g.NodeCount(), g.RelCount(), hn, hr)
	}
	if err := s.Aion.Err(); err != nil {
		t.Fatalf("aion ingestion error: %v", err)
	}
}
