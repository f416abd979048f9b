package cypher

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestConcurrentWritersAndReaders runs write statements from several
// goroutines (serialized by the engine's single-writer lock) while readers
// query concurrently. Run under -race this checks the engine's concurrency
// contract directly, without the bolt layer in between.
func TestConcurrentWritersAndReaders(t *testing.T) {
	ctx := context.Background()
	e := newEngine(t)
	const (
		writers   = 4
		readers   = 4
		perWriter = 30
	)
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	for wi := 0; wi < writers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				q := fmt.Sprintf("CREATE (n:C {w: %d, i: %d})", wi, i)
				if _, err := e.QueryContext(ctx, q, nil); err != nil {
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
			for i := 0; i < perWriter; i++ {
				res, err := e.QueryContext(ctx, "MATCH (n:C) RETURN count(*)", nil)
				if err != nil {
					errs <- fmt.Errorf("reader %d: %w", ri, err)
					return
				}
				if n := res.Rows[0][0].S.Int(); n < 0 || n > writers*perWriter {
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

	res := mustQuery(t, e, "MATCH (n:C) RETURN count(*)", nil)
	if n := res.Rows[0][0].S.Int(); n != writers*perWriter {
		t.Errorf("final count = %d, want %d", n, writers*perWriter)
	}
}

// TestWriteCancelledBeforeLock checks that a write whose context is already
// cancelled when it reaches the single-writer lock does not execute.
func TestWriteCancelledBeforeLock(t *testing.T) {
	e := newEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.QueryContext(ctx, "CREATE (n:X)", nil); err == nil {
		t.Fatal("cancelled write succeeded")
	}
	res := mustQuery(t, e, "MATCH (n:X) RETURN count(*)", nil)
	if n := res.Rows[0][0].S.Int(); n != 0 {
		t.Errorf("cancelled write left %d nodes", n)
	}
}

// TestReadCancelledMidScan checks cooperative cancellation inside the
// executor: a cartesian product big enough to run for seconds (100^4 rows,
// which a count streams and keeps none of) must stop shortly after its
// deadline.
func TestReadCancelledMidScan(t *testing.T) {
	e := newEngine(t)
	for i := 0; i < 100; i++ {
		mustQuery(t, e, fmt.Sprintf("CREATE (n:N {i: %d})", i), nil)
	}
	const timeout = 100 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	begin := time.Now()
	_, err := e.QueryContext(ctx, "MATCH (a), (b), (c), (d) RETURN count(*)", nil)
	elapsed := time.Since(begin)
	if err == nil {
		t.Fatal("huge scan completed under a 100ms deadline")
	}
	if elapsed > 10*timeout {
		t.Errorf("cancellation took %v, want about %v", elapsed, timeout)
	}
}
