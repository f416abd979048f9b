// Tests of internal/testkit/netfault, kept at this path as an external test
// package.
package netfault_test

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"aion/internal/testkit/netfault"
)

// echoServer accepts conns on l and echoes every byte back until EOF.
func echoServer(t *testing.T, l net.Listener) *sync.WaitGroup {
	t.Helper()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				buf := make([]byte, 4096)
				for {
					n, err := c.Read(buf)
					if n > 0 {
						if _, werr := c.Write(buf[:n]); werr != nil {
							return
						}
					}
					if err != nil {
						return
					}
				}
			}()
		}
	}()
	return &wg
}

// startEcho spins up a fault-wrapped echo server and returns its address.
func startEcho(t *testing.T, nw *netfault.Network) string {
	t.Helper()
	l, err := nw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	echoServer(t, l)
	return l.Addr().String()
}

func dialEcho(t *testing.T, nw *netfault.Network, addr string) net.Conn {
	t.Helper()
	c, err := nw.Dialer(nil)(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestCleanEcho(t *testing.T) {
	nw := netfault.New(1)
	addr := startEcho(t, nw)
	c := dialEcho(t, nw, addr)
	msg := []byte("hello temporal world")
	if _, err := c.Write(msg); err != nil {
		t.Fatalf("write: %v", err)
	}
	got := make([]byte, len(msg))
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("echo mismatch: %q", got)
	}
	// Client write + server echo write both cross the network.
	if ops := nw.Ops(); ops != 2 {
		t.Fatalf("ops = %d, want 2", ops)
	}
}

func TestScriptedDropSeversConn(t *testing.T) {
	nw := netfault.New(1)
	addr := startEcho(t, nw)
	c := dialEcho(t, nw, addr)
	nw.ScriptAt(1, netfault.Fault{Kind: netfault.Drop})
	if _, err := c.Write([]byte("doomed")); !errors.Is(err, netfault.ErrSevered) {
		t.Fatalf("write err = %v, want ErrSevered", err)
	}
	// The conn is dead in both directions.
	if _, err := c.Read(make([]byte, 1)); !errors.Is(err, netfault.ErrSevered) {
		t.Fatalf("read err = %v, want ErrSevered", err)
	}
	if st := nw.Stats(); st.Injected["drop"] != 1 || st.Severed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestScriptedTruncateTearsFrame(t *testing.T) {
	nw := netfault.New(1)
	addr := startEcho(t, nw)
	c := dialEcho(t, nw, addr)
	nw.ScriptAt(1, netfault.Fault{Kind: netfault.Truncate})
	msg := []byte("0123456789")
	if _, err := c.Write(msg); !errors.Is(err, netfault.ErrSevered) {
		t.Fatalf("write err = %v, want ErrSevered", err)
	}
	// The peer echoed the delivered prefix before seeing the close; a raw
	// dial would observe it, but this side is severed — just confirm the
	// stats recorded a truncation, not a clean write.
	if st := nw.Stats(); st.Injected["truncate"] != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestScriptedDuplicateDelivers(t *testing.T) {
	nw := netfault.New(1)
	addr := startEcho(t, nw)
	c := dialEcho(t, nw, addr)
	nw.ScriptAt(1, netfault.Fault{Kind: netfault.Duplicate})
	msg := []byte("dup")
	if _, err := c.Write(msg); err != nil {
		t.Fatalf("write: %v", err)
	}
	got := make([]byte, 2*len(msg))
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatalf("read: %v", err)
	}
	if want := []byte("dupdup"); !bytes.Equal(got, want) {
		t.Fatalf("got %q, want %q", got, want)
	}
}

func TestScriptedCorruptFlipsByte(t *testing.T) {
	nw := netfault.New(1)
	addr := startEcho(t, nw)
	c := dialEcho(t, nw, addr)
	nw.ScriptAt(1, netfault.Fault{Kind: netfault.Corrupt})
	msg := []byte("intact-bytes")
	if _, err := c.Write(msg); err != nil {
		t.Fatalf("write: %v", err)
	}
	got := make([]byte, len(msg))
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatalf("read: %v", err)
	}
	if bytes.Equal(got, msg) {
		t.Fatal("corrupt fault delivered intact bytes")
	}
	diff := 0
	for i := range msg {
		if got[i] != msg[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("%d bytes differ, want exactly 1", diff)
	}
}

func TestHalfOpenSwallowsWrites(t *testing.T) {
	nw := netfault.New(1)
	addr := startEcho(t, nw)
	c := dialEcho(t, nw, addr)
	nw.ScriptAt(1, netfault.Fault{Kind: netfault.HalfOpen})
	if _, err := c.Write([]byte("vanishes")); err != nil {
		t.Fatalf("half-open write should report success, got %v", err)
	}
	if _, err := c.Write([]byte("still vanishes")); err != nil {
		t.Fatalf("later write should also report success, got %v", err)
	}
	c.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	_, err := c.Read(make([]byte, 1))
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("read err = %v, want timeout (nothing was delivered)", err)
	}
	if st := nw.Stats(); st.Swallowed < 2 {
		t.Fatalf("stats = %+v, want >=2 swallowed", st)
	}
}

func TestPartitionBlackholesAndHealRequiresRedial(t *testing.T) {
	nw := netfault.New(1)
	addr := startEcho(t, nw)
	c := dialEcho(t, nw, addr)
	// Healthy first.
	if _, err := c.Write([]byte("ok")); err != nil {
		t.Fatalf("write: %v", err)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(c, make([]byte, 2)); err != nil {
		t.Fatalf("read: %v", err)
	}

	nw.Partition(addr)
	// Writes appear to succeed but vanish.
	if _, err := c.Write([]byte("into the void")); err != nil {
		t.Fatalf("partitioned write should report success, got %v", err)
	}
	// Reads hang until the deadline, then time out — no error reveals the
	// partition.
	c.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	_, err := c.Read(make([]byte, 1))
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("read err = %v, want timeout", err)
	}
	// New dials time out too.
	if _, err := nw.Dialer(nil)(addr); err == nil {
		t.Fatal("dial to partitioned addr succeeded")
	} else if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("dial err = %v, want timeout", err)
	}

	nw.Heal(addr)
	// The old conn stays dead...
	c.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	if _, err := c.Read(make([]byte, 1)); err == nil {
		t.Fatal("blackholed conn came back after heal")
	}
	// ...but a fresh dial works end to end.
	c2 := dialEcho(t, nw, addr)
	if _, err := c2.Write([]byte("back")); err != nil {
		t.Fatalf("post-heal write: %v", err)
	}
	c2.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(c2, make([]byte, 4)); err != nil {
		t.Fatalf("post-heal read: %v", err)
	}
}

func TestPartitionUnblocksParkedReader(t *testing.T) {
	nw := netfault.New(1)
	addr := startEcho(t, nw)
	c := dialEcho(t, nw, addr)
	c.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	done := make(chan error, 1)
	go func() {
		_, err := c.Read(make([]byte, 1))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // park the reader inside inner.Read
	nw.Partition(addr)
	select {
	case err := <-done:
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("read err = %v, want timeout", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reader never returned after partition + deadline")
	}
}

func TestSeverAllKillsWithError(t *testing.T) {
	nw := netfault.New(1)
	addr := startEcho(t, nw)
	c := dialEcho(t, nw, addr)
	nw.SeverAll(addr)
	if _, err := c.Write([]byte("x")); !errors.Is(err, netfault.ErrSevered) {
		t.Fatalf("write err = %v, want ErrSevered", err)
	}
	// Unlike Partition, dialing still works: the node itself is up.
	c2 := dialEcho(t, nw, addr)
	if _, err := c2.Write([]byte("ok")); err != nil {
		t.Fatalf("post-sever dial write: %v", err)
	}
}

func TestSeededRatesAreDeterministic(t *testing.T) {
	// One write per fresh pipe (a drop severs its pipe); the kind a write
	// drew is the injection counter it raised.
	run := func(seed int64) []string {
		nw := netfault.New(seed)
		nw.SetRate(netfault.Drop, 0.2)
		nw.SetRate(netfault.Duplicate, 0.2)
		var kinds []string
		before := map[string]uint64{}
		for i := 0; i < 200; i++ {
			a, b := nw.Pipe("a", "b")
			go io.Copy(io.Discard, b)
			a.Write([]byte("x"))
			a.Close()
			b.Close()
			after, kind := nw.Stats().Injected, ""
			for k, n := range after {
				if n != before[k] {
					kind = k
				}
			}
			kinds = append(kinds, kind)
			before = after
		}
		return kinds
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at op %d: %q vs %q", i, a[i], b[i])
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical fault schedules")
	}
}

func TestPipeCarriesBytes(t *testing.T) {
	nw := netfault.New(1)
	a, b := nw.Pipe("left", "right")
	defer a.Close()
	defer b.Close()
	go func() { a.Write([]byte("ping")) }()
	got := make([]byte, 4)
	b.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(b, got); err != nil {
		t.Fatalf("read: %v", err)
	}
	if string(got) != "ping" {
		t.Fatalf("got %q", got)
	}
	if a.Peer() != "left" || b.Peer() != "right" {
		t.Fatalf("peer labels: %q %q", a.Peer(), b.Peer())
	}
}

func TestScriptedDelayHoldsChunk(t *testing.T) {
	nw := netfault.New(1)
	addr := startEcho(t, nw)
	c := dialEcho(t, nw, addr)
	nw.ScriptAt(1, netfault.Fault{Kind: netfault.Delay, Delay: 60 * time.Millisecond})
	start := time.Now()
	if _, err := c.Write([]byte("slow")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if took := time.Since(start); took < 50*time.Millisecond {
		t.Fatalf("delayed write returned in %v, want >=50ms", took)
	}
	got := make([]byte, 4)
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatalf("read: %v", err)
	}
}
