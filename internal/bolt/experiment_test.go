package bolt

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestShedVsQueueExperiment measures the admission-control trade-off
// recorded in EXPERIMENTS.md: the same overload (12 clients, 20 queries
// each, all pushing a ~20 ms cartesian scan) served by (a) an unbounded
// server, where every query executes at once and they all queue on CPU,
// and (b) a MaxConcurrent=2 server that sheds excess load, with clients
// retrying on the retryable FAILURE. Skipped unless AION_EXPERIMENT=1 —
// it is a measurement, not a correctness check.
func TestShedVsQueueExperiment(t *testing.T) {
	if os.Getenv("AION_EXPERIMENT") == "" {
		t.Skip("set AION_EXPERIMENT=1 to run")
	}
	for _, cfg := range []struct {
		name string
		opts Options
	}{
		{"unbounded", Options{}},
		{"shed-retry", Options{MaxConcurrent: 2}},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			srv, addr, _ := startServerWith(t, cfg.opts)
			seedc, err := dialRetry(addr, RetryPolicy{})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 150; i++ {
				if _, _, _, err := seedc.Run(fmt.Sprintf("CREATE (n:N {i: %d})", i), nil); err != nil {
					t.Fatal(err)
				}
			}
			seedc.Close()

			const clients, perClient = 12, 20
			policy := RetryPolicy{MaxAttempts: 100, BaseDelay: 2 * time.Millisecond, MaxDelay: 50 * time.Millisecond}
			var mu sync.Mutex
			var lat []time.Duration
			var wg sync.WaitGroup
			begin := time.Now()
			for ci := 0; ci < clients; ci++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					c, err := dialRetry(addr, RetryPolicy{})
					if err != nil {
						t.Error(err)
						return
					}
					defer c.Close()
					for i := 0; i < perClient; i++ {
						qb := time.Now()
						// 150^2 = 22.5k pair extensions: ~20 ms of CPU.
						_, _, _, err := c.runRetry(policy, "MATCH (a), (b) RETURN count(*)", nil, 0)
						d := time.Since(qb)
						if err != nil {
							t.Error(err)
							return
						}
						mu.Lock()
						lat = append(lat, d)
						mu.Unlock()
					}
				}()
			}
			wg.Wait()
			wall := time.Since(begin)
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			pct := func(p float64) time.Duration { return lat[int(p*float64(len(lat)-1))] }
			m := srv.Metrics()
			t.Logf("%s: wall %v, %d queries ok, p50 %v, p95 %v, max %v, executed %d, shed %d",
				cfg.name, wall.Round(time.Millisecond), len(lat),
				pct(0.50).Round(time.Millisecond), pct(0.95).Round(time.Millisecond),
				lat[len(lat)-1].Round(time.Millisecond), m.Queries, m.Shed)
		})
	}
}
