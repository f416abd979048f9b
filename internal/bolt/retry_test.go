package bolt

// The tests' retrying client, and its coverage: the error classifier,
// dialRetry through a flaky listener, and runRetry redialing after a
// mid-stream disconnect. No binary retries a statement, so the client is
// test code: the overload, stress and experiment tests ride out shed
// queries with it.

import (
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"aion/internal/clock"
	"aion/internal/cypher"
	"aion/internal/model"
)

// retryClient is a Client that retries: RunTimeout plus retries on
// failures the server marked retryable and on transport failures, the
// latter against a freshly dialed connection.
type retryClient struct {
	*Client
	addr string
}

// retryable reports whether the same statement may succeed if retried
// after a backoff.
func retryable(se *ServerError) bool {
	return se.Code == FailOverloaded || se.Code == FailShuttingDown || se.Code == FailReplicaLag
}

// transportRetryable reports whether err is a transport-level failure worth
// retrying against a fresh connection: a refused or reset connection, a
// broken pipe, an abrupt EOF mid-frame, or a network timeout. Typed server
// FAILUREs are excluded — retryable governs them — as are protocol and
// decode errors, which would just fail again.
func transportRetryable(err error) bool {
	if err == nil {
		return false
	}
	var se *ServerError
	if errors.As(err, &se) {
		return false
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.EPIPE) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}

// sleepBackoff sleeps the policy's full-jitter delay before retry number
// attempt (0-based).
func sleepBackoff(p RetryPolicy, attempt int) {
	_ = clock.Real{}.Sleep(context.Background(), p.Backoff(attempt))
}

// dialRetry is Dial with the policy's backoff applied to transport-level
// dial failures.
func dialRetry(addr string, policy RetryPolicy) (*retryClient, error) {
	attempts := max(policy.MaxAttempts, 1)
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			sleepBackoff(policy, attempt-1)
		}
		c, err := Dial(addr)
		if err == nil {
			return &retryClient{Client: c, addr: addr}, nil
		}
		lastErr = err
		if !transportRetryable(err) {
			return nil, err
		}
	}
	return nil, lastErr
}

// runRetry is RunTimeout with retries. A server FAILURE leaves the
// connection usable, so its retries reuse it; a transport failure drops it
// and the next attempt redials.
func (c *retryClient) runRetry(policy RetryPolicy, query string, params map[string]model.Value, timeout time.Duration) ([]string, [][]cypher.Val, *Summary, error) {
	attempts := max(policy.MaxAttempts, 1)
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			sleepBackoff(policy, attempt-1)
		}
		if c.conn == nil {
			nc, err := Dial(c.addr)
			if err != nil {
				lastErr = err
				if !transportRetryable(err) {
					return nil, nil, nil, err
				}
				continue
			}
			c.conn, c.r, c.w, c.epoch = nc.conn, nc.r, nc.w, nc.epoch
		}
		cols, rows, sum, err := c.RunTimeout(query, params, timeout)
		if err == nil {
			return cols, rows, sum, nil
		}
		lastErr = err
		var se *ServerError
		switch {
		case errors.As(err, &se):
			if !retryable(se) {
				return nil, nil, nil, err
			}
		case transportRetryable(err):
			c.conn.Close()
			c.conn = nil
		default:
			return nil, nil, nil, err
		}
	}
	return nil, nil, nil, lastErr
}

func TestTransportRetryable(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"server error", &ServerError{Code: FailOverloaded}, false},
		{"retryable server error stays server-side", &ServerError{Code: FailReplicaLag}, false},
		{"eof", io.EOF, true},
		{"unexpected eof", io.ErrUnexpectedEOF, true},
		{"wrapped eof", &net.OpError{Op: "read", Err: io.EOF}, true},
		{"econnrefused", syscall.ECONNREFUSED, true},
		{"wrapped econnrefused", &net.OpError{Op: "dial", Err: syscall.ECONNREFUSED}, true},
		{"econnreset", syscall.ECONNRESET, true},
		{"epipe", syscall.EPIPE, true},
		{"net timeout", &net.OpError{Op: "read", Err: timeoutErr{}}, true},
		{"plain error", errors.New("boom"), false},
	}
	for _, tc := range cases {
		if got := transportRetryable(tc.err); got != tc.want {
			t.Errorf("%s: transportRetryable(%v) = %v, want %v", tc.name, tc.err, got, tc.want)
		}
	}
}

type timeoutErr struct{}

func (timeoutErr) Error() string   { return "timeout" }
func (timeoutErr) Timeout() bool   { return true }
func (timeoutErr) Temporary() bool { return true }

// flakyProxy forwards TCP connections to a backend, can reject the next N
// accepts outright, and can sever every live connection mid-stream.
type flakyProxy struct {
	ln      net.Listener
	backend string
	reject  atomic.Int32

	mu    sync.Mutex
	conns []net.Conn
}

func startFlakyProxy(t *testing.T, backend string) *flakyProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &flakyProxy{ln: ln, backend: backend}
	t.Cleanup(func() { ln.Close(); p.killAll() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			if p.reject.Load() > 0 {
				p.reject.Add(-1)
				c.Close() // the client sees EOF before the handshake
				continue
			}
			b, err := net.Dial("tcp", backend)
			if err != nil {
				c.Close()
				continue
			}
			p.mu.Lock()
			p.conns = append(p.conns, c, b)
			p.mu.Unlock()
			go func() { io.Copy(b, c); b.Close() }()
			go func() { io.Copy(c, b); c.Close() }()
		}
	}()
	return p
}

func (p *flakyProxy) addr() string { return p.ln.Addr().String() }

func (p *flakyProxy) killAll() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.conns {
		c.Close()
	}
	p.conns = nil
}

func TestDialRetryThroughFlakyListener(t *testing.T) {
	_, addr, _ := startServerWith(t, Options{})
	p := startFlakyProxy(t, addr)
	p.reject.Store(3)
	policy := RetryPolicy{MaxAttempts: 6, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond}
	c, err := dialRetry(p.addr(), policy)
	if err != nil {
		t.Fatalf("dialRetry through flaky listener: %v", err)
	}
	defer c.Close()
	if _, _, _, err := c.RunTimeout("CREATE (n:R {x: 1})", nil, time.Second); err != nil {
		t.Fatalf("query after flaky dial: %v", err)
	}

	// With too few attempts the flakiness wins and the error is transport-
	// classified, so callers know a retry could have helped.
	p.reject.Store(5)
	_, err = dialRetry(p.addr(), RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond})
	if err == nil {
		t.Fatal("dialRetry succeeded against a rejecting listener")
	}
	if !transportRetryable(err) {
		t.Fatalf("dial failure not transport-classified: %v", err)
	}
	p.reject.Store(0)
}

func TestRunRetryRedialsAfterDisconnect(t *testing.T) {
	_, addr, _ := startServerWith(t, Options{})
	p := startFlakyProxy(t, addr)
	policy := RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond}
	c, err := dialRetry(p.addr(), policy)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, _, err := c.runRetry(policy, "CREATE (n:R {x: 1})", nil, time.Second); err != nil {
		t.Fatal(err)
	}

	// Sever every live connection: the next runRetry hits a transport
	// error, redials through the proxy, and still answers.
	p.killAll()
	_, rows, _, err := c.runRetry(policy, "MATCH (n:R) RETURN n.x", nil, time.Second)
	if err != nil {
		t.Fatalf("runRetry after disconnect: %v", err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows after redial, want 1", len(rows))
	}
}
