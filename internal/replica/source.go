package replica

import (
	"bufio"
	"context"
	"expvar"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"aion/internal/bolt"
	"aion/internal/clock"
	"aion/internal/hostdb"
	"aion/internal/system"
)

// maxShipmentBytes caps one shipment's payload well under Bolt's 16 MiB
// frame limit; a catch-up after long downtime streams as many shipments as
// it takes.
const maxShipmentBytes = 1 << 20

// Source is the primary-side log-shipping service: it builds shipments
// from the host database's durable bytes and streams them to followers
// over connections handed off by the Bolt server's ReplicationHandler.
// Shipment building is read-only and lock-light, so N followers tail the
// same primary independently.
//
// The source is also where fencing meets the wire: every stream it serves
// carries the database's current epoch, every replicate request it accepts
// folds the follower's epoch into the database (which demotes this node if
// the follower's is higher), and a node that is not RolePrimary refuses to
// ship at all — a demoted primary's divergent suffix must never reach a
// follower.
type Source struct {
	db *hostdb.DB

	// PollInterval is how often an idle stream re-checks for new durable
	// bytes; HeartbeatInterval is how often it sends a keepalive carrying
	// the primary's extents and clock. Zero values take the defaults.
	PollInterval      time.Duration
	HeartbeatInterval time.Duration

	// Clock is the time source for poll sleeps and heartbeat pacing; nil
	// means the wall clock; a test may install a clocktest.Fake.
	Clock clock.Clock

	bytesShipped  atomic.Uint64
	heartbeats    atomic.Uint64
	fencedStreams atomic.Uint64
}

// NewSource creates a shipping source over sys's host database and adds its
// Stats to sys.Metrics as "replica.source".
func NewSource(sys *system.System) *Source {
	s := &Source{db: sys.Host}
	sys.Metrics.Set("replica.source", expvar.Func(func() any { return s.Stats() }))
	return s
}

// Stats reports the shipping counters, the host clock and the epoch.
func (s *Source) Stats() Stats {
	return Stats{
		BytesShipped:  s.bytesShipped.Load(),
		Heartbeats:    s.heartbeats.Load(),
		Watermark:     int64(s.db.Clock()),
		Epoch:         s.db.Epoch(),
		FencedStreams: s.fencedStreams.Load(),
	}
}

// Shipment builds the next batch for a follower whose files end at strOff
// and txnOff, shipping only fsync-covered bytes. The transaction-log
// extent is captured before the strings extent (DurableExtents), and
// records are withheld until the strings chunk has fully caught up to that
// extent — together this guarantees every positional ref in a shipped
// record resolves inside the follower's string table.
//
// An offset beyond the primary's durable extent means the follower holds
// bytes this primary never made durable: divergence, returned as an error
// the stream must fail-stop on.
func (s *Source) Shipment(strOff, txnOff int64, maxBytes int) (*Shipment, error) {
	strDurable, txnDurable := s.db.DurableExtents()
	if strOff > strDurable || txnOff > txnDurable {
		return nil, fmt.Errorf("replica: follower ahead of primary (strings %d>%d or txn %d>%d): diverged",
			strOff, strDurable, txnOff, txnDurable)
	}
	if maxBytes <= 0 {
		maxBytes = maxShipmentBytes
	}
	sh := &Shipment{
		Epoch:  s.db.Epoch(),
		StrOff: strOff, TxnOff: txnOff,
		StrDurable: strDurable, TxnDurable: txnDurable,
		LatestTS: s.db.Clock(),
	}
	chunk, err := s.db.ReadStringsRaw(strOff, maxBytes)
	if err != nil {
		return nil, err
	}
	sh.Strings = chunk
	if strOff+int64(len(chunk)) < strDurable {
		// Strings still catching up; ship them alone so no record can ever
		// reference a string the follower does not yet hold.
		return sh, nil
	}
	if sh.Txn, err = s.db.TxnBytes(txnOff, txnDurable, maxBytes); err != nil {
		return nil, err
	}
	return sh, nil
}

// admit screens a replicate request: fold the follower's epoch into the
// database (demoting this node if the follower has moved on), refuse to
// ship unless this node is the primary, reject a follower claiming bytes
// beyond our durable extents, and verify the tail digest — the follower's
// files must be a byte prefix of ours, not merely the same length.
func (s *Source) admit(req Request) *bolt.ServerError {
	if _, _, err := s.db.ObserveEpoch(req.Epoch); err != nil {
		return &bolt.ServerError{Code: bolt.FailGeneric, Msg: err.Error()}
	}
	if role := s.db.Role(); role != hostdb.RolePrimary {
		s.fencedStreams.Add(1)
		return &bolt.ServerError{Code: bolt.FailFenced,
			Msg: fmt.Sprintf("replica: node is %s at epoch %d, not shipping", role, s.db.Epoch())}
	}
	strDurable, txnDurable := s.db.DurableExtents()
	if req.StrOff > strDurable || req.TxnOff > txnDurable {
		return &bolt.ServerError{Code: bolt.FailDiverged,
			Msg: fmt.Sprintf("replica: follower ahead of primary (strings %d>%d or txn %d>%d): diverged",
				req.StrOff, strDurable, req.TxnOff, txnDurable)}
	}
	if req.StrTailLen > 0 || req.TxnTailLen > 0 {
		strLen, txnLen, strCRC, txnCRC, err := s.db.TailCRC(req.StrOff, req.TxnOff, req.StrTailLen, req.TxnTailLen)
		if err != nil {
			return &bolt.ServerError{Code: bolt.FailGeneric, Msg: err.Error()}
		}
		if strLen != req.StrTailLen || txnLen != req.TxnTailLen ||
			strCRC != req.StrTailCRC || txnCRC != req.TxnTailCRC {
			return &bolt.ServerError{Code: bolt.FailDiverged,
				Msg: fmt.Sprintf("replica: tail digest mismatch below (str %d, txn %d): follower history diverged",
					req.StrOff, req.TxnOff)}
		}
	}
	return nil
}

// ServeConn runs one follower's shipping stream; it is shaped to be
// installed as bolt.Options.ReplicationHandler. The request frame carries
// the follower's resume offsets, epoch, and tail digest; the loop then
// pushes shipments as durable bytes appear and heartbeats when they don't,
// until the connection drops (server close, follower crash, network
// failure) — the follower reconnects with fresh offsets and the stream
// resumes. The loop re-checks the node's role every round: losing the
// primary role (a PROMOTE elsewhere reached us) terminates every stream
// with FailFenced.
func (s *Source) ServeConn(conn net.Conn, r *bufio.Reader, w *bufio.Writer, reqFrame []byte) {
	if len(reqFrame) == 0 || reqFrame[0] != bolt.MsgReplicate {
		return
	}
	var req Request
	if decode(reqFrame[1:], req.fields()) != nil {
		return
	}
	send := func(payload []byte) error {
		if err := bolt.WriteFrame(w, payload); err != nil {
			return err
		}
		return w.Flush()
	}
	if se := s.admit(req); se != nil {
		_ = send(bolt.AppendFailure(se.Code, se.Msg))
		return
	}
	poll := s.PollInterval
	if poll <= 0 {
		poll = 2 * time.Millisecond
	}
	hbEvery := s.HeartbeatInterval
	if hbEvery <= 0 {
		hbEvery = 100 * time.Millisecond
	}
	clk := clock.OrReal(s.Clock)
	strOff, txnOff := req.StrOff, req.TxnOff
	lastSend := clk.Now()
	for {
		if s.db.Role() != hostdb.RolePrimary {
			// Demoted mid-stream: fence this follower off the old timeline.
			s.fencedStreams.Add(1)
			_ = send(bolt.AppendFailure(bolt.FailFenced,
				fmt.Sprintf("replica: demoted to %s at epoch %d", s.db.Role(), s.db.Epoch())))
			return
		}
		sh, err := s.Shipment(strOff, txnOff, maxShipmentBytes)
		if err != nil {
			// Divergent follower or unreadable primary file: tell the
			// follower to fail-stop, then drop the stream.
			_ = send(bolt.AppendFailure(bolt.FailDiverged, err.Error()))
			return
		}
		if sh.Empty() {
			if clk.Now().Sub(lastSend) >= hbEvery {
				s.heartbeats.Add(1)
				hb := Heartbeat{Epoch: sh.Epoch, StrDurable: sh.StrDurable, TxnDurable: sh.TxnDurable, LatestTS: sh.LatestTS}
				if send(encode(bolt.MsgRepHeartbeat, hb.fields())) != nil {
					return
				}
				lastSend = clk.Now()
			}
			if clk.Sleep(context.Background(), poll) != nil {
				return
			}
			continue
		}
		// Counted before the send: a follower may apply the batch and report
		// its watermark before send returns, and the counter must already hold it.
		s.bytesShipped.Add(uint64(len(sh.Strings) + len(sh.Txn)))
		if send(encode(bolt.MsgRepBatch, sh.fields())) != nil {
			return
		}
		lastSend = clk.Now()
		strOff += int64(len(sh.Strings))
		txnOff += int64(len(sh.Txn))
	}
}
