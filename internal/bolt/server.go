package bolt

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"expvar"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"aion/internal/cypher"
	"aion/internal/hostdb"
	"aion/internal/model"
)

// Options configures the serving contract: deadlines, admission control,
// and drain behaviour. The zero value serves like the original server —
// no timeouts, unbounded concurrency, immediate close.
type Options struct {
	// QueryTimeout is the per-query deadline applied when the client does
	// not request one in the RUN frame. Zero means no default deadline.
	QueryTimeout time.Duration
	// MaxConcurrent bounds the number of queries executing at once; excess
	// RUNs are shed immediately with a retryable FailOverloaded FAILURE
	// rather than queued (queueing under overload only moves the wait from
	// the client into the server). Zero or negative means unbounded.
	MaxConcurrent int
	// DrainTimeout is how long Close waits for in-flight queries to finish
	// before cancelling them. Zero means cancel immediately.
	DrainTimeout time.Duration
	// ReadGate, when set, screens every parsed statement before execution.
	// Replica servers use it to reject writes (FailReadOnly) and reads above
	// the replicated watermark (FailReplicaLag). Its error is sent to the
	// client as a statement's would be: a *ServerError with its own code.
	ReadGate func(st *cypher.Statement, params map[string]model.Value) error
	// ReplicationHandler, when set, takes over a connection whose client
	// sends MsgReplicate after the handshake: the serve loop hands the
	// connection (with its buffered reader/writer and the request frame) to
	// the handler, which owns it until it returns.
	// Primaries install the log-shipping source here.
	ReplicationHandler func(conn net.Conn, r *bufio.Reader, w *bufio.Writer, req []byte)
	// Admin, when set, exposes the failover control surface: MsgPromote
	// and MsgStatus frames are answered through it, and the epoch a STATUS
	// probe carries is folded into the node (fencing a stale primary).
	Admin Admin
}

// Admin is the failover control surface a node installs on its Bolt
// listener. internal/replica.Node implements it.
type Admin interface {
	// PromoteNode advances the fencing epoch and makes this node the
	// primary; it returns the new epoch.
	PromoteNode() (epoch uint64, err error)
	// NodeStatus reports the node's role, epoch, and serving watermark.
	NodeStatus() NodeStatus
	// ObserveEpoch folds an epoch seen on the wire into the node (demoting
	// a primary that learns of a higher reign) and returns the node's
	// epoch after observation.
	ObserveEpoch(epoch uint64) uint64
}

// NodeStatus is a node's failover-relevant state, served via MsgStatus.
type NodeStatus struct {
	// Role is the node's hostdb role: "primary", "replica", or "fenced".
	Role string
	// Epoch is the highest fencing epoch the node has durably observed.
	Epoch uint64
	// Watermark is the highest commit timestamp the node can serve.
	Watermark int64
}

// Metrics is a snapshot of the server's admission counters.
type Metrics struct {
	// Queries is the number of RUN statements admitted for execution.
	Queries uint64
	// Shed counts RUNs rejected by the concurrency limit (FailOverloaded).
	Shed uint64
	// Timeouts counts queries that exceeded their deadline (FailTimeout).
	Timeouts uint64
	// Panics counts queries that crashed and were contained (FailPanic).
	Panics uint64
	// Rejected counts statements refused by the read gate (replica writes
	// and above-watermark reads).
	Rejected uint64
	// Promotions counts successful MsgPromote commands served.
	Promotions uint64
}

// Server serves temporal Cypher over the Bolt-like protocol. Each
// connection gets its own goroutine (the worker threads dedicated to query
// compilation, transaction management, and networking of Sec 6.7).
//
// Serving contract: every admitted query runs under a context that is
// cancelled on deadline expiry and on server drain; a panic inside the
// engine is contained to the query that caused it; overload is shed with a
// retryable FAILURE instead of queueing; Close drains in-flight queries up
// to DrainTimeout before cancelling them.
type Server struct {
	engine *cypher.Engine
	opts   Options

	// baseCtx parents every query context; cancelled when drain gives up.
	baseCtx context.Context
	cancel  context.CancelFunc

	listener net.Listener
	wg       sync.WaitGroup

	// sem is the admission semaphore (nil when unbounded). Acquisition is
	// non-blocking: a full semaphore sheds the query.
	sem chan struct{}

	mu       sync.Mutex
	conns    map[net.Conn]bool
	closed   bool
	draining bool
	// active counts statements admitted whose reply is not yet flushed.
	// Once draining is set no statement can be admitted, so active only
	// falls; the transition to zero closes drainedCh.
	active    int
	drainedCh chan struct{}

	queries    atomic.Uint64
	shed       atomic.Uint64
	timeouts   atomic.Uint64
	panics     atomic.Uint64
	rejected   atomic.Uint64
	promotions atomic.Uint64
}

// NewServer creates a server over a Cypher engine and adds its Metrics to the
// engine's system registry as "bolt". Options are variadic so existing
// callers keep working; at most one Options value is used.
func NewServer(engine *cypher.Engine, opts ...Options) *Server {
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		engine:    engine,
		opts:      o,
		baseCtx:   ctx,
		cancel:    cancel,
		conns:     map[net.Conn]bool{},
		drainedCh: make(chan struct{}),
	}
	if o.MaxConcurrent > 0 {
		s.sem = make(chan struct{}, o.MaxConcurrent)
	}
	engine.Sys.Metrics.Set("bolt", expvar.Func(func() any { return s.Metrics() }))
	return s
}

// Metrics returns a snapshot of the admission counters.
func (s *Server) Metrics() Metrics {
	return Metrics{
		Queries:    s.queries.Load(),
		Shed:       s.shed.Load(),
		Timeouts:   s.timeouts.Load(),
		Panics:     s.panics.Load(),
		Rejected:   s.rejected.Load(),
		Promotions: s.promotions.Load(),
	}
}

// Listen starts accepting connections on addr (e.g. "127.0.0.1:0") and
// returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	return s.Serve(l), nil
}

// Serve starts accepting connections on an existing listener and returns
// its bound address. The fault-injection harness uses this to serve
// through a netfault-wrapped listener; Listen is Serve over a plain TCP
// one.
func (s *Server) Serve(l net.Listener) string {
	s.listener = l
	s.wg.Add(1)
	go s.acceptLoop()
	return l.Addr().String()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed || s.draining {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serve(conn)
	}
}

// Close drains and stops the server: stop accepting, let in-flight
// statements finish for up to DrainTimeout, then cancel whatever remains
// and terminate the connections.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.draining = true
	idle := s.active == 0
	s.mu.Unlock()

	// Stop accepting. In-flight serve loops keep running; new RUNs are
	// rejected with FailShuttingDown because draining is set.
	var err error
	if s.listener != nil {
		err = s.listener.Close()
	}

	if !idle && s.opts.DrainTimeout > 0 {
		t := time.NewTimer(s.opts.DrainTimeout)
		select {
		case <-s.drainedCh:
		case <-t.C:
		}
		t.Stop()
	}

	// Cancel queries that outlived the drain window, then drop the
	// connections.
	s.cancel()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// enterStatement admits a statement for drain accounting; it fails when
// the server is draining.
func (s *Server) enterStatement() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.active++
	return true
}

// exitStatement ends a statement once its reply is flushed; the last one
// out during a drain signals Close.
func (s *Server) exitStatement() {
	s.mu.Lock()
	s.active--
	if s.active == 0 && s.draining {
		select {
		case <-s.drainedCh:
		default:
			close(s.drainedCh)
		}
	}
	s.mu.Unlock()
}

func (s *Server) dropConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	conn.Close()
}

// queryContext derives the context one query runs under: the server base
// context (cancelled at the end of drain) plus the effective deadline.
// A client-requested timeout wins; otherwise the server default applies.
func (s *Server) queryContext(reqTimeout time.Duration) (context.Context, context.CancelFunc) {
	timeout := s.opts.QueryTimeout
	if reqTimeout > 0 {
		timeout = reqTimeout
	}
	if timeout <= 0 {
		return context.WithCancel(s.baseCtx)
	}
	return context.WithTimeout(s.baseCtx, timeout)
}

// runQuery executes one statement with panic containment: a crash inside
// the engine is converted to a FailPanic ServerError instead of unwinding
// the connection goroutine (and with it the server). The statement is
// prepared here (not in the engine) so the read gate screens the AST of
// every request, a cached statement included, before any execution work
// happens.
func (s *Server) runQuery(ctx context.Context, query string, params map[string]model.Value) (res *cypher.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			s.panics.Add(1)
			res = nil
			err = &ServerError{Code: FailPanic, Msg: fmt.Sprintf("query panicked: %v", p)}
		}
	}()
	st, err := s.engine.Prepare(query)
	if err != nil {
		return nil, err
	}
	if s.opts.ReadGate != nil {
		if gerr := s.opts.ReadGate(st, params); gerr != nil {
			s.rejected.Add(1)
			return nil, gerr
		}
	}
	return s.engine.ExecContext(ctx, st, params)
}

func (s *Server) serve(conn net.Conn) {
	defer s.wg.Done()
	defer s.dropConn(conn)
	// A panic outside the per-query recovery (protocol handling itself)
	// must not take down the whole server; contain it to this connection.
	defer func() { recover() }()

	r := bufio.NewReaderSize(conn, 1<<16)
	w := bufio.NewWriterSize(conn, 1<<16)

	// Handshake: expect HELLO, reply SUCCESS. The reply carries this
	// node's epoch back when the admin surface is enabled.
	frame, err := readFrame(r)
	if err != nil || len(frame) == 0 || frame[0] != MsgHello {
		return
	}
	success := []byte{MsgSuccess}
	if s.opts.Admin != nil {
		success = binary.BigEndian.AppendUint64(success, s.opts.Admin.ObserveEpoch(0))
	}
	if reply(w, success) != nil {
		return
	}

	// Every request gets its whole reply before the next one is read; an
	// error here is the connection's, and ends it.
	for {
		frame, err := readFrame(r)
		if err != nil || len(frame) == 0 {
			return
		}
		switch frame[0] {
		case MsgGoodbye:
			return
		case MsgReplicate:
			if s.opts.ReplicationHandler != nil {
				// The connection becomes a long-lived push stream owned by
				// the replication source.
				s.opts.ReplicationHandler(conn, r, w, frame)
				return
			}
			err = fail(w, FailGeneric, "bolt: replication not enabled")
		case MsgPromote, MsgStatus:
			err = s.admin(w, frame)
		case MsgRun:
			err = s.run(w, frame[1:])
		default:
			err = fail(w, FailGeneric, fmt.Sprintf("bolt: unexpected message 0x%x", frame[0]))
		}
		if err != nil {
			return
		}
	}
}

// reply writes one frame and flushes it.
func reply(w *bufio.Writer, payload []byte) error {
	if err := writeFrame(w, payload); err != nil {
		return err
	}
	return w.Flush()
}

// fail replies with one FAILURE.
func fail(w *bufio.Writer, code byte, msg string) error {
	return reply(w, AppendFailure(code, msg))
}

// failCode maps the error of a statement or an admin command to the code
// its FAILURE carries.
func (s *Server) failCode(err error) byte {
	var se *ServerError
	switch {
	case errors.As(err, &se):
		return se.Code
	case errors.Is(err, hostdb.ErrFenced):
		// A commit reached a demoted ex-primary: the client must
		// re-resolve the primary, not retry here.
		return FailFenced
	case errors.Is(err, hostdb.ErrReplicaReadOnly):
		return FailReadOnly
	case errors.Is(err, context.DeadlineExceeded):
		return FailTimeout
	case errors.Is(err, context.Canceled) && s.isDraining():
		return FailShuttingDown
	}
	return FailGeneric
}

// run answers one RUN with its whole reply: SUCCESS with the columns, a
// RECORD per row and the summary SUCCESS, or one FAILURE. The statement is
// active for drain from its admission until that reply is flushed, and the
// deferred exitStatement ends it even when writing the reply panics. The
// 64 KiB writer writes itself out whenever it fills, so a large result
// reaches the client while the rest is still being encoded.
func (s *Server) run(w *bufio.Writer, body []byte) error {
	query, params, reqTimeout, err := decodeRun(body)
	if err != nil {
		return fail(w, FailGeneric, err.Error())
	}
	// Admission: reject during drain, shed at the concurrency cap.
	if !s.enterStatement() {
		return fail(w, FailShuttingDown, "server is shutting down")
	}
	defer s.exitStatement()
	if s.sem != nil {
		select {
		case s.sem <- struct{}{}:
		default:
			s.shed.Add(1)
			return fail(w, FailOverloaded, "too many concurrent queries")
		}
	}
	s.queries.Add(1)
	ctx, cancel := s.queryContext(reqTimeout)
	res, err := s.runQuery(ctx, query, params)
	cancel()
	if s.sem != nil {
		<-s.sem
	}
	if err != nil {
		code := s.failCode(err)
		if code == FailTimeout {
			s.timeouts.Add(1)
		}
		return fail(w, code, err.Error())
	}
	payload := binary.AppendUvarint([]byte{MsgSuccess}, uint64(len(res.Columns)))
	for _, c := range res.Columns {
		payload = appendString(payload, c)
	}
	if err := writeFrame(w, payload); err != nil {
		return err
	}
	for _, row := range res.Rows {
		payload = binary.AppendUvarint(append(payload[:0], MsgRecord), uint64(len(row)))
		for _, v := range row {
			payload = appendVal(payload, v)
		}
		if err := writeFrame(w, payload); err != nil {
			return err
		}
	}
	// The summary SUCCESS: no columns, then the write counters.
	payload = binary.AppendUvarint(append(payload[:0], MsgSuccess), 0)
	for _, c := range []int{res.NodesCreated, res.RelsCreated,
		res.PropsSet, res.NodesDeleted, res.RelsDeleted} {
		payload = binary.AppendVarint(payload, int64(c))
	}
	return reply(w, binary.AppendVarint(payload, int64(res.CommitTS)))
}

// admin answers PROMOTE and STATUS, the failover control surface.
func (s *Server) admin(w *bufio.Writer, frame []byte) error {
	if s.opts.Admin == nil {
		return fail(w, FailGeneric, "bolt: admin surface not enabled")
	}
	if frame[0] == MsgPromote {
		epoch, err := s.opts.Admin.PromoteNode()
		if err != nil {
			return fail(w, s.failCode(err), err.Error())
		}
		s.promotions.Add(1)
		return reply(w, binary.BigEndian.AppendUint64([]byte{MsgSuccess}, epoch))
	}
	// STATUS doubles as epoch gossip: a prober that has seen a higher
	// epoch (a client that followed a failover) delivers it here, which is
	// how a partitioned-then-healed ex-primary learns it was deposed and
	// fences itself. The epoch field is absent or exactly 8 bytes.
	switch len(frame) {
	case 1:
	case 9:
		s.opts.Admin.ObserveEpoch(binary.BigEndian.Uint64(frame[1:9]))
	default:
		return fail(w, FailGeneric, "bolt: bad STATUS epoch")
	}
	st := s.opts.Admin.NodeStatus()
	payload := binary.BigEndian.AppendUint64([]byte{MsgSuccess}, st.Epoch)
	payload = appendString(payload, st.Role)
	return reply(w, binary.AppendVarint(payload, st.Watermark))
}

// decodeRun parses a RUN frame body: query, parameters, and an optional
// trailing uvarint timeout in milliseconds. The timeout field is absent in
// frames from older clients, which is treated as "no request" rather than
// an error.
func decodeRun(b []byte) (string, map[string]model.Value, time.Duration, error) {
	query, b, err := readString(b)
	if err != nil {
		return "", nil, 0, err
	}
	n, w := binary.Uvarint(b)
	if w <= 0 {
		return "", nil, 0, fmt.Errorf("bolt: bad param count")
	}
	b = b[w:]
	var params map[string]model.Value
	for i := uint64(0); i < n; i++ {
		var k string
		var v model.Value
		k, b, err = readString(b)
		if err != nil {
			return "", nil, 0, err
		}
		v, b, err = readScalar(b)
		if err != nil {
			return "", nil, 0, err
		}
		if params == nil {
			params = map[string]model.Value{}
		}
		params[k] = v
	}
	var timeout time.Duration
	if len(b) > 0 {
		millis, w := binary.Uvarint(b)
		if w <= 0 {
			return "", nil, 0, fmt.Errorf("bolt: bad timeout field")
		}
		timeout = time.Duration(millis) * time.Millisecond
	}
	return query, params, timeout, nil
}
