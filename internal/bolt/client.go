package bolt

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"time"

	"aion/internal/cypher"
	"aion/internal/model"
)

// Client is a Bolt session. It is not safe for concurrent use; open one
// client per worker (as the paper pins one client thread per core).
type Client struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
	// epoch is the server's fencing epoch as of the HELLO reply (zero when
	// the server has no admin surface).
	epoch uint64
	// OpTimeout bounds the handshake and admin (Promote/Status) reads, and
	// pads the reply deadline of RunTimeout. Without it a silently dead
	// connection — a network partition blackholing the route — would block
	// a reply read forever. Zero means the 2s default.
	OpTimeout time.Duration
}

func (c *Client) opTimeout() time.Duration {
	if c.OpTimeout > 0 {
		return c.OpTimeout
	}
	return 2 * time.Second
}

// recvDeadline reads one frame under a read deadline of d, clearing the
// deadline afterwards so later frames on the session are unaffected.
func (c *Client) recvDeadline(d time.Duration) ([]byte, error) {
	if c.conn != nil {
		c.conn.SetReadDeadline(time.Now().Add(d))
		defer c.conn.SetReadDeadline(time.Time{})
	}
	return c.recv()
}

// Summary carries the write counters of a completed query.
type Summary struct {
	NodesCreated, RelsCreated, PropsSet, NodesDeleted, RelsDeleted int
	CommitTS                                                       model.Timestamp
}

// RetryPolicy is a full-jitter exponential backoff schedule: the
// replication follower's reconnect loop sleeps on it.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (first attempt included).
	// Values below 1 behave as 1.
	MaxAttempts int
	// BaseDelay seeds the exponential backoff: attempt k sleeps a uniform
	// random duration in [0, min(MaxDelay, BaseDelay·2^k)] (full jitter,
	// so synchronized clients don't retry in lockstep).
	BaseDelay time.Duration
	// MaxDelay caps the backoff ceiling. Zero means no cap.
	MaxDelay time.Duration
}

// DefaultRetryPolicy suits a briefly overloaded server: up to 5 attempts
// over roughly a second.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 5, BaseDelay: 20 * time.Millisecond, MaxDelay: 500 * time.Millisecond}
}

// Backoff returns the sleep before retry number attempt (0-based): a
// uniform random duration in [0, min(MaxDelay, BaseDelay·2^attempt)].
func (p RetryPolicy) Backoff(attempt int) time.Duration {
	d := p.BaseDelay << uint(attempt)
	if d <= 0 || (p.MaxDelay > 0 && d > p.MaxDelay) {
		d = p.MaxDelay
	}
	if d <= 0 {
		return 0
	}
	return time.Duration(rand.Int63n(int64(d) + 1))
}

// Dial connects and performs the HELLO handshake.
func Dial(addr string) (*Client, error) {
	return DialVia(addr, nil)
}

// DialVia is Dial through a custom transport dialer (nil means plain TCP).
// Fault sweeps inject a netfault.Network Dialer here so every reconnect the
// client makes flows through the same fault schedule.
func DialVia(addr string, dial func(addr string) (net.Conn, error)) (*Client, error) {
	if dial == nil {
		dial = func(a string) (net.Conn, error) { return net.Dial("tcp", a) }
	}
	conn, err := dial(addr)
	if err != nil {
		return nil, err
	}
	c := &Client{conn: conn, r: bufio.NewReaderSize(conn, 1<<16), w: bufio.NewWriterSize(conn, 1<<16)}
	hello := []byte{MsgHello}
	hello = appendString(hello, "aion-go/1.0")
	if err := c.send(hello); err != nil {
		conn.Close()
		return nil, err
	}
	frame, err := c.recvDeadline(c.opTimeout())
	if err != nil {
		conn.Close()
		return nil, err
	}
	if len(frame) == 0 || frame[0] != MsgSuccess {
		conn.Close()
		return nil, fmt.Errorf("bolt: handshake rejected")
	}
	// Servers with an admin surface append their fencing epoch to the
	// handshake SUCCESS; plain servers send a bare frame.
	switch len(frame) {
	case 1:
	case 9:
		c.epoch = binary.BigEndian.Uint64(frame[1:9])
	default:
		conn.Close()
		return nil, fmt.Errorf("bolt: bad HELLO reply")
	}
	return c, nil
}

// Promote asks the server to take over as primary: it advances the fencing
// epoch, persists it, and flips the node writable. Returns the new epoch.
// The caller is responsible for making sure the old primary is dead or
// partitioned — the epoch fence is what keeps a zombie from splitting the
// brain afterwards.
func (c *Client) Promote() (uint64, error) {
	if err := c.admin([]byte{MsgPromote}, "PROMOTE", func(body []byte) bool { return len(body) == 0 }); err != nil {
		return 0, err
	}
	return c.epoch, nil
}

// Status fetches the server's role, fencing epoch, and replication
// watermark; probing every node with it finds the primary after a failover.
// The request carries the epoch this connection last saw from its server,
// so it never fences; a peer that writes a STATUS frame with a higher epoch
// fences a deposed primary that missed the failover (epoch gossip).
func (c *Client) Status() (NodeStatus, error) {
	var st NodeStatus
	err := c.admin(binary.BigEndian.AppendUint64([]byte{MsgStatus}, c.epoch), "STATUS", func(body []byte) bool {
		role, rest, err := readString(body)
		wm, w := binary.Varint(rest)
		st.Role, st.Watermark = role, wm
		return err == nil && w > 0 && w == len(rest)
	})
	if err != nil {
		return NodeStatus{}, err
	}
	st.Epoch = c.epoch
	return st, nil
}

// admin sends one PROMOTE or STATUS request and reads its reply under
// OpTimeout. A FAILURE comes back as a *ServerError. A SUCCESS carries the
// node's epoch and then a body that parse must accept whole; the epoch
// becomes the session's.
func (c *Client) admin(req []byte, name string, parse func(body []byte) bool) error {
	if err := c.send(req); err != nil {
		return err
	}
	frame, err := c.recvDeadline(c.opTimeout())
	if err != nil {
		return err
	}
	if len(frame) > 0 && frame[0] == MsgFailure {
		return DecodeFailure(frame[1:])
	}
	if len(frame) < 9 || frame[0] != MsgSuccess || !parse(frame[9:]) {
		return fmt.Errorf("bolt: bad %s reply", name)
	}
	c.epoch = binary.BigEndian.Uint64(frame[1:9])
	return nil
}

func (c *Client) send(payload []byte) error {
	if c.conn == nil {
		return net.ErrClosed
	}
	if err := writeFrame(c.w, payload); err != nil {
		return err
	}
	return c.w.Flush()
}

func (c *Client) recv() ([]byte, error) { return readFrame(c.r) }

// Run executes a query and reads its whole reply, with no client-side
// deadline (the server's default query timeout still applies).
func (c *Client) Run(query string, params map[string]model.Value) ([]string, [][]cypher.Val, *Summary, error) {
	return c.RunTimeout(query, params, 0)
}

// RunTimeout executes a query with a per-query deadline request encoded in
// the RUN frame. That frame is the statement's one request: the server
// answers with the columns, every record and the summary, or with a
// FAILURE — FailTimeout when the query exceeds its deadline. A zero timeout
// requests the server default.
func (c *Client) RunTimeout(query string, params map[string]model.Value, timeout time.Duration) ([]string, [][]cypher.Val, *Summary, error) {
	if timeout > 0 && c.conn != nil {
		// Bound the whole statement's reads client-side: the server enforces
		// the query deadline, but only a local deadline saves us from a
		// connection the network silently blackholed.
		c.conn.SetReadDeadline(time.Now().Add(timeout + c.opTimeout()))
		defer c.conn.SetReadDeadline(time.Time{})
	}
	msg := []byte{MsgRun}
	msg = appendString(msg, query)
	msg = binary.AppendUvarint(msg, uint64(len(params)))
	for k, v := range params {
		msg = appendString(msg, k)
		msg = appendScalar(msg, v)
	}
	msg = binary.AppendUvarint(msg, uint64(timeout/time.Millisecond))
	if err := c.send(msg); err != nil {
		return nil, nil, nil, err
	}
	frame, err := c.recv()
	if err != nil {
		return nil, nil, nil, err
	}
	if len(frame) == 0 {
		return nil, nil, nil, fmt.Errorf("bolt: empty reply")
	}
	if frame[0] == MsgFailure {
		return nil, nil, nil, DecodeFailure(frame[1:])
	}
	if frame[0] != MsgSuccess {
		return nil, nil, nil, fmt.Errorf("bolt: unexpected reply 0x%x", frame[0])
	}
	// Columns.
	b := frame[1:]
	nc, w := binary.Uvarint(b)
	if w <= 0 || nc > uint64(len(b)) {
		return nil, nil, nil, fmt.Errorf("bolt: bad column count")
	}
	b = b[w:]
	columns := make([]string, nc)
	for i := range columns {
		columns[i], b, err = readString(b)
		if err != nil {
			return nil, nil, nil, err
		}
	}

	// The records and the summary follow in the same reply.
	var rows [][]cypher.Val
	for {
		frame, err := c.recv()
		if err != nil {
			return nil, nil, nil, err
		}
		if len(frame) == 0 {
			return nil, nil, nil, fmt.Errorf("bolt: empty frame")
		}
		switch frame[0] {
		case MsgRecord:
			b := frame[1:]
			n, w := binary.Uvarint(b)
			if w <= 0 || n > uint64(len(b)) {
				return nil, nil, nil, fmt.Errorf("bolt: bad record arity")
			}
			b = b[w:]
			row := make([]cypher.Val, n)
			for i := range row {
				row[i], b, err = readVal(b)
				if err != nil {
					return nil, nil, nil, err
				}
			}
			rows = append(rows, row)
		case MsgSuccess:
			sum, err := decodeSummary(frame[1:])
			if err != nil {
				return nil, nil, nil, err
			}
			return columns, rows, sum, nil
		case MsgFailure:
			return nil, nil, nil, DecodeFailure(frame[1:])
		default:
			return nil, nil, nil, fmt.Errorf("bolt: unexpected frame 0x%x", frame[0])
		}
	}
}

func decodeSummary(b []byte) (*Summary, error) {
	// Skip the (empty) column list.
	_, w := binary.Uvarint(b)
	if w <= 0 {
		return nil, fmt.Errorf("bolt: bad summary")
	}
	b = b[w:]
	var vals [6]int64
	for i := range vals {
		x, w := binary.Varint(b)
		if w <= 0 {
			return nil, fmt.Errorf("bolt: short summary")
		}
		vals[i] = x
		b = b[w:]
	}
	return &Summary{
		NodesCreated: int(vals[0]), RelsCreated: int(vals[1]), PropsSet: int(vals[2]),
		NodesDeleted: int(vals[3]), RelsDeleted: int(vals[4]),
		CommitTS: model.Timestamp(vals[5]),
	}, nil
}

// Close sends GOODBYE and closes the connection.
func (c *Client) Close() error {
	if c.conn == nil {
		return nil
	}
	c.send([]byte{MsgGoodbye})
	return c.conn.Close()
}
