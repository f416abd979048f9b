package bolt

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestStressMixedWorkload hammers one server with concurrent writer and
// reader connections plus short client deadlines, exercising admission,
// retry, cancellation, and the engine's single-writer lock under -race.
func TestStressMixedWorkload(t *testing.T) {
	const (
		writers   = 4
		readers   = 4
		perWriter = 25
		perReader = 40
	)
	srv, addr, _ := startServerWith(t, Options{
		QueryTimeout:  5 * time.Second,
		MaxConcurrent: 3, // below the client count so shedding actually happens
	})
	policy := RetryPolicy{MaxAttempts: 50, BaseDelay: time.Millisecond, MaxDelay: 20 * time.Millisecond}

	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	for wi := 0; wi < writers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			c, err := dialRetry(addr, RetryPolicy{})
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < perWriter; i++ {
				q := fmt.Sprintf("CREATE (n:S {w: %d, i: %d})", wi, i)
				if _, _, _, err := c.runRetry(policy, q, nil, 0); err != nil {
					errs <- fmt.Errorf("writer %d: %w", wi, err)
					return
				}
			}
		}(wi)
	}
	for ri := 0; ri < readers; ri++ {
		wg.Add(1)
		go func(ri int) {
			defer wg.Done()
			c, err := dialRetry(addr, RetryPolicy{})
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < perReader; i++ {
				_, rows, _, err := c.runRetry(policy, "MATCH (n:S) RETURN count(*)", nil, time.Second)
				if err != nil {
					errs <- fmt.Errorf("reader %d: %w", ri, err)
					return
				}
				if n := rows[0][0].S.Int(); n < 0 || n > writers*perWriter {
					errs <- fmt.Errorf("reader %d: impossible count %d", ri, n)
					return
				}
			}
		}(ri)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Every write must have landed exactly once despite retries: a shed RUN
	// is rejected before execution, so retrying it cannot double-apply.
	c, err := dialRetry(addr, RetryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, rows, _, err := c.runRetry(policy, "MATCH (n:S) RETURN count(*)", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := rows[0][0].S.Int(); n != writers*perWriter {
		t.Errorf("final count = %d, want %d", n, writers*perWriter)
	}
	m := srv.Metrics()
	t.Logf("metrics: %d queries, %d shed, %d timeouts, %d panics", m.Queries, m.Shed, m.Timeouts, m.Panics)
}
