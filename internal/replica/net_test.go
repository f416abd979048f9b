package replica

// End-to-end replication over real TCP: a primary Bolt server ships its WAL
// to two follower servers through the REPLICATE stream, followers serve
// gated reads, and killed connections / refused dials reconnect with
// backoff.

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"aion/internal/bolt"
	"aion/internal/cypher"
	"aion/internal/hostdb"
	"aion/internal/model"
	"aion/internal/system"
	"aion/internal/testkit/vfstest"
)

func startNode(t *testing.T, sys *system.System, opts bolt.Options) (*bolt.Server, string) {
	t.Helper()
	srv := bolt.NewServer(cypher.NewEngine(sys), opts)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr
}

func waitWatermark(t *testing.T, app *Applier, want model.Timestamp) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for app.Watermark() < want {
		if time.Now().After(deadline) {
			t.Fatalf("watermark stuck at %d, want %d", app.Watermark(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// trackingDialer dials TCP and remembers the latest connection so the test
// can sever it mid-stream.
type trackingDialer struct {
	mu   sync.Mutex
	last net.Conn
}

func (d *trackingDialer) dial(addr string) (net.Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	d.last = c
	d.mu.Unlock()
	return c, nil
}

func (d *trackingDialer) kill() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.last != nil {
		d.last.Close()
	}
}

func TestReplicationOverTCP(t *testing.T) {
	fastPolicy := bolt.RetryPolicy{MaxAttempts: 0, BaseDelay: time.Millisecond, MaxDelay: 20 * time.Millisecond}

	// Primary with the REPLICATE handler installed.
	p := openNode(t, vfstest.NewFaultFS(), "primary", false)
	defer p.Close()
	src := NewSource(p)
	psrv, paddr := startNode(t, p, bolt.Options{ReplicationHandler: src.ServeConn})

	// Two followers tailing it, each serving gated reads.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type fnode struct {
		sys  *system.System
		app  *Applier
		addr string
		dial *trackingDialer
	}
	var followers []*fnode
	for _, dir := range []string{"f1", "f2"} {
		fsys := openNode(t, vfstest.NewFaultFS(), dir, true)
		defer fsys.Close()
		app := NewApplier(fsys)
		_, addr := startNode(t, fsys, bolt.Options{ReadGate: app.Gate})
		d := &trackingDialer{}
		fl := &Follower{Applier: app, Addr: paddr, Policy: fastPolicy,
			ReadTimeout: 500 * time.Millisecond, Dial: d.dial}
		go fl.Run(ctx)
		followers = append(followers, &fnode{sys: fsys, app: app, addr: addr, dial: d})
	}

	drive(t, p, 10)
	for _, f := range followers {
		waitWatermark(t, f.app, p.Host.Clock())
	}

	// Reads are served by replicas; writes go to the primary and replicate.
	fc, err := bolt.Dial(followers[0].addr)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	cols, rows, _, err := fc.RunTimeout("MATCH (n:P) RETURN n", nil, time.Second)
	if err != nil {
		t.Fatalf("replica read: %v", err)
	}
	if len(cols) == 0 || len(rows) == 0 {
		t.Fatalf("replica read returned %d cols, %d rows", len(cols), len(rows))
	}
	pc, err := bolt.Dial(paddr)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	preQueries := psrv.Metrics().Queries
	if _, _, _, err := pc.RunTimeout("CREATE (n:W)", nil, time.Second); err != nil {
		t.Fatalf("primary write: %v", err)
	}
	if got := psrv.Metrics().Queries; got != preQueries+1 {
		t.Fatalf("write did not reach the primary (%d queries, want %d)", got, preQueries+1)
	}
	for _, f := range followers {
		waitWatermark(t, f.app, p.Host.Clock())
	}

	// A write sent straight at a follower is rejected with the typed
	// read-only code, and a read above its watermark with replica lag.
	_, _, _, err = fc.RunTimeout("CREATE (n:W)", nil, time.Second)
	if se, ok := err.(*bolt.ServerError); !ok || se.Code != bolt.FailReadOnly {
		t.Fatalf("follower write: %v", err)
	}
	_, _, _, err = fc.RunTimeout("USE aion FOR SYSTEM_TIME AS OF $t MATCH (n:P) RETURN n",
		map[string]model.Value{"t": model.IntValue(int64(p.Host.Clock()) + 100)}, time.Second)
	if se, ok := err.(*bolt.ServerError); !ok || se.Code != bolt.FailReplicaLag {
		t.Fatalf("follower future read: %v", err)
	}

	// Kill follower 1's stream mid-flight: it must reconnect and catch up
	// with commits made while it was down.
	followers[0].dial.kill()
	_, err = p.Host.Run(func(tx *hostdb.Tx) error {
		_, cerr := tx.CreateNode([]string{"P"}, model.Properties{"i": model.IntValue(999)})
		return cerr
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range followers {
		waitWatermark(t, f.app, p.Host.Clock())
	}

	// Replication counters surfaced through both systems' registries: a
	// follower that started empty applied exactly the primary's file bytes.
	if pm := registered(t, p, "replica.source"); pm.BytesShipped == 0 {
		t.Fatalf("primary replication metrics: %+v", pm)
	}
	str, txn := p.Host.DurableExtents()
	fm := registered(t, followers[0].sys, "replica.applier")
	if fm.BytesApplied != uint64(str+txn) || fm.Watermark != int64(p.Host.Clock()) {
		t.Fatalf("follower replication metrics: %+v, want %d bytes applied", fm, str+txn)
	}
}

func TestFollowerReconnectBackoff(t *testing.T) {
	p := openNode(t, vfstest.NewFaultFS(), "primary", false)
	defer p.Close()
	drive(t, p, 5)
	src := NewSource(p)
	_, paddr := startNode(t, p, bolt.Options{ReplicationHandler: src.ServeConn})

	fsys := openNode(t, vfstest.NewFaultFS(), "follower", true)
	defer fsys.Close()
	app := NewApplier(fsys)
	var calls atomic.Int32
	dial := func(addr string) (net.Conn, error) {
		if calls.Add(1) <= 3 {
			return nil, syscall.ECONNREFUSED
		}
		return net.Dial("tcp", addr)
	}
	fl := &Follower{Applier: app, Addr: paddr,
		Policy:      bolt.RetryPolicy{MaxAttempts: 0, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
		ReadTimeout: 500 * time.Millisecond, Dial: dial}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go fl.Run(ctx)

	waitWatermark(t, app, p.Host.Clock())
	if got := app.Stats().Reconnects; got < 3 {
		t.Fatalf("reconnects = %d, want >= 3 (one per refused dial)", got)
	}

	// A bounded policy gives up after MaxAttempts consecutive failures.
	app2 := NewApplier(fsys)
	fl2 := &Follower{Applier: app2, Addr: paddr,
		Policy: bolt.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
		Dial:   func(string) (net.Conn, error) { return nil, syscall.ECONNREFUSED }}
	done := make(chan error, 1)
	go func() { done <- fl2.Run(context.Background()) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("bounded follower did not report failure")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("bounded follower never gave up")
	}
}
