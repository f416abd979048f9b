package bolt

// A statement is one request and one reply: the client writes its RUN once,
// the server answers with the columns, every record and the summary in one
// flush, and nothing else crosses the wire. Admin replies are checked whole
// on both sides.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aion/internal/cypher"
	"aion/internal/system"
)

// countingConn counts the writes made on a connection.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// countingListener hands out countingConns and keeps them.
type countingListener struct {
	net.Listener
	mu    sync.Mutex
	conns []*countingConn
}

func (l *countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	cc := &countingConn{Conn: conn}
	l.mu.Lock()
	l.conns = append(l.conns, cc)
	l.mu.Unlock()
	return cc, nil
}

func (l *countingListener) last() *countingConn {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.conns[len(l.conns)-1]
}

func TestOneRoundTripPerStatement(t *testing.T) {
	sys, err := system.Open(system.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	engine := cypher.NewEngine(sys)
	srv := NewServer(engine)
	tl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &countingListener{Listener: tl}
	addr := srv.Serve(cl)
	t.Cleanup(func() { srv.Close() })

	var client *countingConn
	c, err := DialVia(addr, func(a string) (net.Conn, error) {
		conn, err := net.Dial("tcp", a)
		client = &countingConn{Conn: conn}
		return client, err
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		var nodes []string
		for j := 1; j <= 40; j++ {
			nodes = append(nodes, fmt.Sprintf("(:P {i: %d})", 40*i+j))
		}
		if _, _, _, err := c.Run("CREATE "+strings.Join(nodes, ", "), nil); err != nil {
			t.Fatal(err)
		}
	}

	server := cl.last()
	cw, sw := client.writes.Load(), server.writes.Load()
	_, rows, _, err := c.Run(`MATCH (n:P) RETURN n`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 120 {
		t.Fatalf("rows: %d, want 120", len(rows))
	}
	if n := client.writes.Load() - cw; n != 1 {
		t.Errorf("client writes per Run: %d, want 1", n)
	}
	if n := server.writes.Load() - sw; n != 1 {
		t.Errorf("server writes for a reply under 64 KiB: %d, want 1", n)
	}

	// A raw session: HELLO, then RUN alone gets SUCCESS, RECORD..., SUCCESS.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	recv := func(d time.Duration) ([]byte, error) {
		raw.SetReadDeadline(time.Now().Add(d))
		return readFrame(raw)
	}
	run := appendString([]byte{MsgRun}, `MATCH (n:P) WHERE n.i <= 3 RETURN n.i ORDER BY n.i`)
	run = binary.AppendUvarint(run, 0)
	if err := writeFrame(raw, appendString([]byte{MsgHello}, "raw")); err != nil {
		t.Fatal(err)
	}
	if f, err := recv(2 * time.Second); err != nil || f[0] != MsgSuccess {
		t.Fatalf("HELLO reply: %x %v", f, err)
	}
	for round := 0; round < 2; round++ {
		if err := writeFrame(raw, run); err != nil {
			t.Fatal(err)
		}
		var kinds []byte
		for len(kinds) < 5 {
			f, err := recv(2 * time.Second)
			if err != nil {
				t.Fatalf("round %d: after %x: %v", round, kinds, err)
			}
			kinds = append(kinds, f[0])
		}
		want := []byte{MsgSuccess, MsgRecord, MsgRecord, MsgRecord, MsgSuccess}
		if string(kinds) != string(want) {
			t.Fatalf("round %d: reply %x, want %x", round, kinds, want)
		}
		if f, err := recv(50 * time.Millisecond); !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("round %d: a frame after the summary: %x %v", round, f, err)
		}
		// A stray PULL (0x3F, Neo4j's PULL, which this protocol lacks) fails
		// alone and leaves the session usable for the next round.
		if err := writeFrame(raw, []byte{0x3F}); err != nil {
			t.Fatal(err)
		}
		f, err := recv(2 * time.Second)
		if err != nil || f[0] != MsgFailure {
			t.Fatalf("stray PULL: %x %v", f, err)
		}
		if se := DecodeFailure(f[1:]); se.Code != FailGeneric || !strings.Contains(se.Msg, "unexpected message") {
			t.Fatalf("stray PULL: %v", se)
		}
	}
}

// scriptedServer accepts one connection, answers its HELLO with hello and
// its next request with reply, then waits for the client to hang up.
func scriptedServer(t *testing.T, hello, reply []byte) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for _, out := range [][]byte{hello, reply} {
			if _, err := readFrame(conn); err != nil || writeFrame(conn, out) != nil {
				return
			}
		}
		readFrame(conn)
	}()
	return l.Addr().String()
}

func TestClientChecksAdminRepliesWhole(t *testing.T) {
	epoch := func(tail ...byte) []byte {
		return append(binary.BigEndian.AppendUint64([]byte{MsgSuccess}, 3), tail...)
	}
	status := func(tail ...byte) []byte {
		b := appendString(epoch(), "primary")
		return append(binary.AppendVarint(b, 42), tail...)
	}
	short := []byte{MsgSuccess, 0, 0, 0, 3}

	for _, tc := range []struct {
		name         string
		hello, reply []byte
		call         func(c *Client) error
		bad          string // the message the error names; "" = accepted
	}{
		{"hello bare", []byte{MsgSuccess}, epoch(), promoteCall, ""},
		{"hello epoch", epoch(), epoch(), promoteCall, ""},
		{"hello trailing byte", epoch(0), nil, nil, "HELLO"},
		{"hello short epoch", short, nil, nil, "HELLO"},
		{"promote trailing byte", epoch(), epoch(0), promoteCall, "PROMOTE"},
		{"promote short epoch", epoch(), short, promoteCall, "PROMOTE"},
		{"status", epoch(), status(), statusCall, ""},
		{"status trailing byte", epoch(), status(0), statusCall, "STATUS"},
		{"status short epoch", epoch(), short, statusCall, "STATUS"},
		{"status no watermark", epoch(), appendString(epoch(), "primary"), statusCall, "STATUS"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := Dial(scriptedServer(t, tc.hello, tc.reply))
			if err == nil {
				defer c.Close()
				if tc.call != nil {
					err = tc.call(c)
				}
			}
			switch {
			case tc.bad == "" && err != nil:
				t.Fatalf("well-formed replies refused: %v", err)
			case tc.bad != "" && (err == nil || !strings.Contains(err.Error(), "bad "+tc.bad+" reply")):
				t.Fatalf("got %v, want an error naming %s", err, tc.bad)
			}
		})
	}
}

func promoteCall(c *Client) error {
	epoch, err := c.Promote()
	if err == nil && epoch != 3 {
		return errors.New("promote: wrong epoch")
	}
	return err
}

func statusCall(c *Client) error {
	st, err := c.Status()
	if err == nil && (st != NodeStatus{Role: "primary", Epoch: 3, Watermark: 42}) {
		return errors.New("status: wrong fields")
	}
	return err
}

// fixedAdmin is an admin surface that records the epochs it observes.
type fixedAdmin struct {
	mu       sync.Mutex
	observed []uint64
}

func (a *fixedAdmin) PromoteNode() (uint64, error) { return 0, errors.New("no promotion here") }
func (a *fixedAdmin) NodeStatus() NodeStatus       { return NodeStatus{Role: "replica", Epoch: 2} }
func (a *fixedAdmin) ObserveEpoch(e uint64) uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.observed = append(a.observed, e)
	return 2
}

func TestServerRefusesMalformedStatusEpoch(t *testing.T) {
	sys, err := system.Open(system.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	admin := &fixedAdmin{}
	srv := NewServer(cypher.NewEngine(sys), Options{Admin: admin})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for _, tc := range []struct {
		req []byte
		ok  bool
	}{
		{[]byte{MsgStatus}, true},
		{binary.BigEndian.AppendUint64([]byte{MsgStatus}, 7), true},
		{[]byte{MsgStatus, 0, 0, 0, 7}, false},
		{append(binary.BigEndian.AppendUint64([]byte{MsgStatus}, 9), 0), false},
	} {
		if err := c.send(tc.req); err != nil {
			t.Fatal(err)
		}
		f, err := c.recvDeadline(2 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if got := f[0] == MsgSuccess; got != tc.ok {
			t.Errorf("STATUS of %d bytes: reply %x, want success=%v", len(tc.req), f, tc.ok)
		}
	}
	// A PROMOTE whose error is not a ServerError fails as FailGeneric.
	var se *ServerError
	if _, err := c.Promote(); !errors.As(err, &se) || se.Code != FailGeneric || se.Msg != "no promotion here" {
		t.Errorf("promote: %v", err)
	}
	admin.mu.Lock()
	defer admin.mu.Unlock()
	// HELLO observes 0; of the STATUS epochs only the 8-byte one is observed.
	if got := fmt.Sprint(admin.observed); got != "[0 7]" {
		t.Errorf("observed epochs %s, want [0 7]", got)
	}
}
