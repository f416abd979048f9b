package bolt

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"aion/internal/cypher"
	"aion/internal/model"
	"aion/internal/system"
)

// startServerWith is startServer with explicit serving options.
func startServerWith(t *testing.T, opts Options) (*Server, string, *cypher.Engine) {
	t.Helper()
	sys, err := system.Open(system.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	engine := cypher.NewEngine(sys)
	srv := NewServer(engine, opts)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr, engine
}

// registerBlockProc installs a procedure that blocks until the returned
// release func is called or the query context is cancelled; started is
// signalled once per invocation as soon as the proc is running.
func registerBlockProc(engine *cypher.Engine, started chan struct{}) (release func()) {
	gate := make(chan struct{})
	engine.Register("test.block", cypher.Proc{Columns: []string{"ok"}, Run: func(c *cypher.Call) error {
		if started != nil {
			started <- struct{}{}
		}
		select {
		case <-gate:
			c.Add(cypher.ScalarVal(model.IntValue(1)))
			return nil
		case <-c.Ctx.Done():
			return c.Ctx.Err()
		}
	}})
	var once sync.Once
	return func() { once.Do(func() { close(gate) }) }
}

// TestQueryDeadlineMidScan drives a combinatorially huge cartesian match
// through a short per-RUN timeout: the server must return a FailTimeout
// FAILURE within 2x the timeout, a concurrent query on another connection
// must complete normally, and the timed-out connection must stay usable.
func TestQueryDeadlineMidScan(t *testing.T) {
	srv, addr, _ := startServerWith(t, Options{MaxConcurrent: 8})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 120; i++ {
		if _, _, _, err := c.Run(fmt.Sprintf("CREATE (n:N {i: %d})", i), nil); err != nil {
			t.Fatal(err)
		}
	}

	// Concurrent well-behaved query on a second connection, racing the
	// doomed scan.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c2, err := Dial(addr)
		if err != nil {
			t.Error(err)
			return
		}
		defer c2.Close()
		for i := 0; i < 10; i++ {
			_, rows, _, err := c2.Run("MATCH (n:N) RETURN count(*)", nil)
			if err != nil {
				t.Errorf("healthy query failed: %v", err)
				return
			}
			if rows[0][0].S.Int() != 120 {
				t.Errorf("healthy query count = %d", rows[0][0].S.Int())
				return
			}
		}
	}()

	const timeout = 400 * time.Millisecond
	begin := time.Now()
	// 120^4 = 2.1e8 candidate rows: seconds without cancellation, even for a
	// count that keeps no row.
	_, _, _, err = c.RunTimeout("MATCH (a), (b), (c), (d) RETURN count(*)", nil, timeout)
	elapsed := time.Since(begin)
	var se *ServerError
	if !errors.As(err, &se) || se.Code != FailTimeout {
		t.Fatalf("want FailTimeout, got %v", err)
	}
	if retryable(se) {
		t.Error("timeout must not be retryable")
	}
	if elapsed > 2*timeout {
		t.Errorf("timeout took %v, want <= %v", elapsed, 2*timeout)
	}
	wg.Wait()

	// The connection survived the failure.
	_, rows, _, err := c.Run("MATCH (n:N) RETURN count(*)", nil)
	if err != nil {
		t.Fatalf("connection unusable after timeout: %v", err)
	}
	if rows[0][0].S.Int() != 120 {
		t.Errorf("count = %d", rows[0][0].S.Int())
	}
	if m := srv.Metrics(); m.Timeouts != 1 {
		t.Errorf("timeouts metric = %d, want 1", m.Timeouts)
	}
}

// TestOverloadShedsRetryable saturates a MaxConcurrent=1 server with a
// blocking query and checks that the next query is shed immediately with a
// retryable failure, and that runRetry's backoff rides out the overload.
func TestOverloadShedsRetryable(t *testing.T) {
	started := make(chan struct{}, 1)
	srv, addr, engine := startServerWith(t, Options{MaxConcurrent: 1})
	release := registerBlockProc(engine, started)
	defer release()

	blocker, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer blocker.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, _, _, err := blocker.Run("CALL test.block()", nil); err != nil {
			t.Errorf("blocker: %v", err)
		}
	}()
	<-started // the slot is taken

	c, err := dialRetry(addr, RetryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, _, _, err = c.Run("MATCH (n) RETURN count(*)", nil)
	var se *ServerError
	if !errors.As(err, &se) || se.Code != FailOverloaded {
		t.Fatalf("want FailOverloaded, got %v", err)
	}
	if !retryable(se) {
		t.Fatal("overload shed must be retryable")
	}

	// Free the slot mid-backoff; the retrying client must succeed.
	go func() {
		time.Sleep(30 * time.Millisecond)
		release()
	}()
	policy := RetryPolicy{MaxAttempts: 20, BaseDelay: 10 * time.Millisecond, MaxDelay: 100 * time.Millisecond}
	if _, _, _, err := c.runRetry(policy, "MATCH (n) RETURN count(*)", nil, 0); err != nil {
		t.Fatalf("retry did not recover: %v", err)
	}
	wg.Wait()
	if m := srv.Metrics(); m.Shed == 0 {
		t.Error("shed metric not incremented")
	}
}

// TestPanicIsolation injects a panicking procedure and checks the crash is
// contained: the panicking query's connection gets a FailPanic FAILURE and
// stays usable, and other connections are unaffected.
func TestPanicIsolation(t *testing.T) {
	srv, addr, engine := startServerWith(t, Options{MaxConcurrent: 4})
	engine.Register("test.panic", cypher.Proc{Run: func(*cypher.Call) error {
		panic("injected failure")
	}})

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, _, _, err = c.Run("CALL test.panic()", nil)
	var se *ServerError
	if !errors.As(err, &se) || se.Code != FailPanic {
		t.Fatalf("want FailPanic, got %v", err)
	}
	if retryable(se) {
		t.Error("panic must not be retryable")
	}
	if !strings.Contains(se.Msg, "injected failure") {
		t.Errorf("panic message lost: %q", se.Msg)
	}

	// Same connection still serves queries.
	if _, _, _, err := c.Run("MATCH (n) RETURN count(*)", nil); err != nil {
		t.Fatalf("connection unusable after contained panic: %v", err)
	}
	// So does a fresh one.
	c2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, _, _, err := c2.Run("MATCH (n) RETURN count(*)", nil); err != nil {
		t.Fatal(err)
	}
	if m := srv.Metrics(); m.Panics != 1 {
		t.Errorf("panics metric = %d, want 1", m.Panics)
	}
}

// TestGracefulDrain checks Close ordering: a query in flight when Close
// begins is allowed to finish and deliver its result; new statements are
// rejected with a retryable shutting-down failure.
func TestGracefulDrain(t *testing.T) {
	started := make(chan struct{}, 1)
	srv, addr, engine := startServerWith(t, Options{MaxConcurrent: 4, DrainTimeout: 5 * time.Second})
	release := registerBlockProc(engine, started)
	defer release()

	inflight, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer inflight.Close()
	bystander, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer bystander.Close()

	type outcome struct {
		rows [][]cypher.Val
		err  error
	}
	inflightDone := make(chan outcome, 1)
	go func() {
		_, rows, _, err := inflight.Run("CALL test.block()", nil)
		inflightDone <- outcome{rows, err}
	}()
	<-started

	closeDone := make(chan error, 1)
	go func() { closeDone <- srv.Close() }()

	// Wait until the drain has begun, then check admission is closed.
	for !srv.isDraining() {
		time.Sleep(time.Millisecond)
	}
	_, _, _, err = bystander.Run("MATCH (n) RETURN count(*)", nil)
	var se *ServerError
	if errors.As(err, &se) {
		if se.Code != FailShuttingDown {
			t.Errorf("want FailShuttingDown, got %v", err)
		}
		if !retryable(se) {
			t.Error("shutting-down must be retryable")
		}
	}
	// (A transport error is also acceptable if Close already tore the
	// connection down — admission never ran a new query either way.)

	// Let the in-flight query finish inside the drain window; it must
	// deliver a full result, not a cancellation.
	release()
	res := <-inflightDone
	if res.err != nil {
		t.Fatalf("in-flight query lost during drain: %v", res.err)
	}
	if len(res.rows) != 1 || res.rows[0][0].S.Int() != 1 {
		t.Errorf("in-flight rows: %v", res.rows)
	}
	if err := <-closeDone; err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestDrainTimeoutCancelsStragglers checks the other half of the drain
// contract: a query that refuses to finish is cancelled once DrainTimeout
// expires, and Close returns instead of hanging.
func TestDrainTimeoutCancelsStragglers(t *testing.T) {
	started := make(chan struct{}, 1)
	srv, addr, engine := startServerWith(t, Options{MaxConcurrent: 4, DrainTimeout: 100 * time.Millisecond})
	release := registerBlockProc(engine, started)
	defer release()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	errCh := make(chan error, 1)
	go func() {
		_, _, _, err := c.Run("CALL test.block()", nil)
		errCh <- err
	}()
	<-started

	begin := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if elapsed := time.Since(begin); elapsed > 3*time.Second {
		t.Errorf("close took %v despite 100ms drain timeout", elapsed)
	}
	if err := <-errCh; err == nil {
		t.Error("straggler query reported success after forced cancel")
	}
}
