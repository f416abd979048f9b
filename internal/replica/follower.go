package replica

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"aion/internal/bolt"
	"aion/internal/clock"
)

// Follower maintains one replication stream from a follower node to its
// primary: dial, handshake, send resume offsets, then apply pushed
// shipments until the stream breaks — and reconnect with full-jitter
// backoff, re-reading the resume offsets from the follower's durable
// extents each time, so a crash on either side (or a torn network) always
// resumes exactly where durability left off.
type Follower struct {
	Applier *Applier
	// Addr is the primary's Bolt address.
	Addr string
	// Policy is the reconnect backoff schedule (bolt's full-jitter
	// policy). MaxAttempts bounds CONSECUTIVE failed
	// connection attempts; any applied shipment resets the count. Zero
	// value takes bolt.DefaultRetryPolicy with unbounded attempts.
	Policy bolt.RetryPolicy
	// ReadTimeout is the heartbeat liveness bound: a stream silent for this
	// long is declared dead and redialed. Zero defaults to 2s.
	ReadTimeout time.Duration

	// Dial is replaceable in tests; nil means net.Dial("tcp", addr).
	Dial func(addr string) (net.Conn, error)
	// Clock supplies the reconnect backoff sleeps; nil means the wall
	// clock. Connection read deadlines stay on the wall clock regardless —
	// they bound real I/O, not simulated time.
	Clock clock.Clock
}

// ErrPromoted is the clean-stop signal: the node was promoted to primary
// while the stream was live, so the follower loop exits without error and
// without marking divergence.
var ErrPromoted = errors.New("replica: node promoted; replication stream stopped")

// errDiverged wraps a divergence the loop must fail-stop on instead of
// reconnecting.
type errDiverged struct{ err error }

func (e errDiverged) Error() string { return e.err.Error() }
func (e errDiverged) Unwrap() error { return e.err }

// Run drives the stream until ctx is cancelled (returns nil) or the
// follower fail-stops on divergence (returns the divergence error).
// Transient failures — refused dials, mid-stream disconnects, heartbeat
// silence — are retried forever (or up to Policy.MaxAttempts consecutive
// failures) with full-jitter backoff.
func (f *Follower) Run(ctx context.Context) error {
	policy := f.Policy
	if policy.BaseDelay == 0 {
		policy = bolt.DefaultRetryPolicy()
		policy.MaxAttempts = 0 // reconnect forever by default
	}
	dial := f.Dial
	if dial == nil {
		dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	clk := clock.OrReal(f.Clock)
	attempt := 0
	for {
		if ctx.Err() != nil {
			return nil
		}
		if !f.Applier.IsReplica() {
			return nil // promoted (or fenced) between streams: stop cleanly
		}
		if attempt > 0 {
			if policy.MaxAttempts > 0 && attempt >= policy.MaxAttempts {
				return fmt.Errorf("replica: giving up after %d consecutive connection failures", attempt)
			}
			f.Applier.NoteReconnect()
			if err := clk.Sleep(ctx, policy.Backoff(attempt-1)); err != nil {
				return nil // ctx cancelled while backing off
			}
		}
		attempt++
		err := f.stream(ctx, dial)
		if errors.Is(err, ErrPromoted) {
			return nil
		}
		var div errDiverged
		if errors.As(err, &div) {
			f.Applier.MarkDiverged(div.err)
			return div.err
		}
		if err == nil {
			attempt = 0 // made progress before the stream broke
		}
	}
}

// stream runs one connection's lifetime. It returns nil when the stream
// made progress (at least one shipment or heartbeat) before breaking, a
// plain error when it broke without progress (counts against the
// consecutive-failure budget), and errDiverged to fail-stop.
func (f *Follower) stream(ctx context.Context, dial func(string) (net.Conn, error)) error {
	readTimeout := f.ReadTimeout
	if readTimeout <= 0 {
		readTimeout = 2 * time.Second
	}
	conn, err := dial(f.Addr)
	if err != nil {
		return err
	}
	//aionlint:ignore errdrop network socket teardown, not a durability boundary; every store write the stream caused was already fsynced by Applier.Apply
	defer conn.Close()
	r := bufio.NewReaderSize(conn, 1<<16)
	w := bufio.NewWriterSize(conn, 1<<16)

	// HELLO handshake, then convert the connection into a replication
	// stream with our epoch, durable resume offsets and a tail digest of the
	// bytes below them. Epochs travel only inside checked records: a fenced
	// ex-primary learns of its demotion from the request, and we adopt a
	// higher epoch from the first shipment or heartbeat.
	hello := []byte{bolt.MsgHello}
	hello = append(hello, byte(len("aion-replica")))
	hello = append(hello, "aion-replica"...)
	if err := bolt.WriteFrame(w, hello); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	conn.SetReadDeadline(time.Now().Add(readTimeout))
	frame, err := bolt.ReadFrame(r)
	if err != nil {
		return err
	}
	if len(frame) == 0 || frame[0] != bolt.MsgSuccess {
		return fmt.Errorf("replica: handshake rejected")
	}
	req, err := f.Applier.BuildRequest()
	if err != nil {
		return err
	}
	if err := bolt.WriteFrame(w, encode(bolt.MsgReplicate, req.fields())); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}

	progressed := false
	result := func(err error) error {
		if progressed {
			return nil
		}
		return err
	}
	for {
		if ctx.Err() != nil {
			return nil
		}
		conn.SetReadDeadline(time.Now().Add(readTimeout))
		frame, err := bolt.ReadFrame(r)
		if err != nil {
			// Heartbeat silence past the liveness bound or a broken
			// connection: either way the stream is dead; redial.
			return result(err)
		}
		if len(frame) == 0 {
			return result(fmt.Errorf("replica: empty frame"))
		}
		switch frame[0] {
		case bolt.MsgRepBatch:
			sh := &Shipment{}
			if err := decode(frame[1:], sh.fields()); err != nil {
				// Decode failures (including CRC mismatches) are STREAM
				// corruption — a fault-injected or flaky transport mangled
				// the frame in flight. The durable files are untouched, so
				// this is a reconnect, not divergence: the fresh stream
				// resumes from the durable offsets and re-ships the bytes.
				return result(err)
			}
			if own := f.Applier.Epoch(); sh.Epoch < own {
				// A stale primary (pre-failover epoch) is still pushing; its
				// log may carry a divergent suffix. Refuse without applying
				// and reconnect — the handshake will carry our epoch and
				// fence it.
				return result(fmt.Errorf("replica: shipment epoch %d below own epoch %d; refusing stale primary", sh.Epoch, own))
			} else if sh.Epoch > own {
				if err := f.Applier.ObserveEpoch(sh.Epoch); err != nil {
					return result(err)
				}
			}
			if !f.Applier.IsReplica() {
				return ErrPromoted
			}
			if err := f.Applier.Apply(sh); err != nil {
				if errors.Is(err, ErrPromoted) {
					return ErrPromoted
				}
				if errors.Is(err, ErrStaleShipment) {
					// A replayed shipment (duplicated chunk): its bytes are
					// already durable here. Skip it and keep the stream.
					progressed = true
					continue
				}
				// Any other apply failure is divergence by construction
				// (offset gap, replay failure): fail-stop.
				return errDiverged{err}
			}
			progressed = true
		case bolt.MsgRepHeartbeat:
			var hb Heartbeat
			if err := decode(frame[1:], hb.fields()); err != nil {
				return result(err)
			}
			if own := f.Applier.Epoch(); hb.Epoch < own {
				return result(fmt.Errorf("replica: heartbeat epoch %d below own epoch %d", hb.Epoch, own))
			} else if hb.Epoch > own {
				if err := f.Applier.ObserveEpoch(hb.Epoch); err != nil {
					return result(err)
				}
			}
			f.Applier.Note(hb)
			progressed = true
		case bolt.MsgFailure:
			se := bolt.DecodeFailure(frame[1:])
			if se.Code == bolt.FailDiverged {
				return errDiverged{se}
			}
			// FailFenced: the node we dialed is not the primary anymore. It
			// and a FAILURE that does not decode (FailGeneric) are transient
			// from our side: back off and redial — the operator will repoint
			// us at the new primary.
			return result(se)
		default:
			return result(fmt.Errorf("replica: unexpected stream message 0x%x", frame[0]))
		}
	}
}
