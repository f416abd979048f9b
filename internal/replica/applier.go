package replica

import (
	"errors"
	"expvar"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"aion/internal/bolt"
	"aion/internal/hostdb"
	"aion/internal/model"
	"aion/internal/system"
)

// Applier is the follower-side end of the stream: it verifies each
// shipment's offsets against the follower's own durable extents, makes the
// bytes durable, replays them through the host's commit path (which feeds
// the follower's Aion instance), and advances the replicated watermark —
// the highest commit timestamp the follower may serve.
//
// The applier is sticky-failed like the stores underneath it: the first
// divergence (offset or CRC mismatch, replay failure) poisons it, every
// later Apply and every gated read fails, and only operator re-seeding
// recovers the node. Serving subtly wrong history would be strictly worse
// than serving nothing.
type Applier struct {
	sys *system.System

	// StalenessBound is how many commit timestamps a follower may lag the
	// primary and still serve latest (non-temporal) reads; beyond it those
	// reads are rejected with FailReplicaLag so routing clients degrade to
	// primary-only serving. Zero means no bound. Historical reads at or
	// below the watermark are always served — their answers cannot change.
	StalenessBound model.Timestamp
	// DisconnectGrace rejects latest reads when no shipment or heartbeat
	// has arrived for this long (the follower cannot know its lag). Zero
	// disables the check.
	DisconnectGrace time.Duration

	// now is replaced in tests to drive the disconnect-grace clock.
	now func() time.Time

	mu          sync.Mutex
	watermark   model.Timestamp
	primaryTS   model.Timestamp
	lastContact time.Time
	failed      error

	bytesApplied atomic.Uint64
	heartbeats   atomic.Uint64
	reconnects   atomic.Uint64
}

// NewApplier creates an applier over a follower system (opened with
// system.Options.Replica) and adds its Stats to sys.Metrics as
// "replica.applier". The watermark starts at the follower's recovered clock:
// everything already in its own durable log is servable.
func NewApplier(sys *system.System) *Applier {
	a := &Applier{sys: sys, now: time.Now, watermark: sys.Host.Clock()}
	sys.Metrics.Set("replica.applier", expvar.Func(func() any { return a.Stats() }))
	return a
}

// Offsets returns the follower's durable file extents — the resume point a
// (re)connecting follower sends to the primary. After a crash these are
// re-read from the reopened files, so the stream always resumes exactly
// where durability left off.
func (a *Applier) Offsets() (strOff, txnOff int64) {
	return a.sys.Host.DurableExtents()
}

// tailCheckBytes bounds the per-file byte range the follower digests in its
// replicate request. 64 KiB of tail is enough to catch any realistic
// divergent suffix (a demoted primary's unreplicated commits) without
// rereading whole files on every reconnect.
const tailCheckBytes = 64 << 10

// BuildRequest assembles the replicate request for a (re)connect: the
// durable resume offsets, the follower's fencing epoch, and a CRC digest of
// the file tails below those offsets. The primary refuses the stream when
// the digest does not match its own bytes — the same-length-divergent-
// suffix case a demoted primary presents when it tries to rejoin as a
// follower.
func (a *Applier) BuildRequest() (Request, error) {
	strOff, txnOff := a.Offsets()
	sl, tl, sc, tc, err := a.sys.Host.TailCRC(strOff, txnOff, tailCheckBytes, tailCheckBytes)
	if err != nil {
		return Request{}, err
	}
	return Request{
		StrOff: strOff, TxnOff: txnOff, Epoch: a.Epoch(),
		StrTailLen: sl, TxnTailLen: tl, StrTailCRC: sc, TxnTailCRC: tc,
	}, nil
}

// Epoch returns the follower's current fencing epoch.
func (a *Applier) Epoch() uint64 { return a.sys.Host.Epoch() }

// ObserveEpoch adopts a higher fencing epoch seen on the stream (persisted
// before it takes effect). On a replica this never demotes anything.
func (a *Applier) ObserveEpoch(epoch uint64) error {
	_, _, err := a.sys.Host.ObserveEpoch(epoch)
	return err
}

// IsReplica reports whether the node is still in the live replica role —
// false once promoted (or fenced), at which point the stream must stop
// applying shipments.
func (a *Applier) IsReplica() bool { return a.sys.Host.Role() == hostdb.RoleReplica }

// Watermark returns the replicated watermark: the highest commit timestamp
// this follower can serve.
func (a *Applier) Watermark() model.Timestamp {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.watermark
}

// Err returns the sticky divergence error, if any.
func (a *Applier) Err() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.failed
}

// MarkDiverged poisons the applier (stream-level divergence detected by
// the follower loop: a shipment that fails to apply, primary-reported
// divergence).
func (a *Applier) MarkDiverged(err error) {
	a.mu.Lock()
	if a.failed == nil {
		a.failed = err
	}
	a.mu.Unlock()
}

// NoteReconnect counts a stream re-establishment (metrics).
func (a *Applier) NoteReconnect() { a.reconnects.Add(1) }

// Note records a heartbeat: the primary's clock, for lag accounting.
func (a *Applier) Note(hb Heartbeat) {
	a.heartbeats.Add(1)
	a.mu.Lock()
	if hb.LatestTS > a.primaryTS {
		a.primaryTS = hb.LatestTS
	}
	a.lastContact = a.now()
	a.mu.Unlock()
}

// ErrStaleShipment reports a shipment whose byte range lies entirely at or
// below the follower's durable extents: a replayed shipment (a duplicated
// network chunk, or a primary resending after a lost ack). The prefix
// invariant guarantees those bytes are identical to what the follower
// already holds, so the shipment is skipped — it is NOT divergence.
var ErrStaleShipment = errors.New("replica: stale shipment replayed below durable extents")

// Apply ingests one shipment: verify its offsets land exactly at this
// follower's durable extents, append + fsync + replay through the host
// (durability before visibility), then advance the watermark. A shipment
// entirely below the extents is a replay and returns ErrStaleShipment;
// any other mismatch or replay failure is divergence and poisons the
// applier.
func (a *Applier) Apply(sh *Shipment) error {
	a.mu.Lock()
	if a.failed != nil {
		err := a.failed
		a.mu.Unlock()
		return err
	}
	a.mu.Unlock()

	if !a.IsReplica() {
		return ErrPromoted
	}
	strOff, txnOff := a.Offsets()
	if sh.StrOff != strOff || sh.TxnOff != txnOff {
		if sh.StrOff+int64(len(sh.Strings)) <= strOff && sh.TxnOff+int64(len(sh.Txn)) <= txnOff {
			return ErrStaleShipment
		}
		err := fmt.Errorf("replica: shipment offsets (str %d, txn %d) do not match follower extents (str %d, txn %d): diverged",
			sh.StrOff, sh.TxnOff, strOff, txnOff)
		a.MarkDiverged(err)
		return err
	}
	ts, err := a.sys.Host.ApplyShipment(sh.Strings, sh.Txn)
	if err != nil {
		if !a.IsReplica() {
			// Promotion raced the shipment: the host refused it on role
			// grounds, not because the bytes diverged. Clean stop, no
			// poisoning.
			return ErrPromoted
		}
		a.MarkDiverged(err)
		return err
	}
	if err := a.sys.Aion.Err(); err != nil {
		a.MarkDiverged(fmt.Errorf("replica: temporal store ingest: %w", err))
		return err
	}

	a.bytesApplied.Add(uint64(len(sh.Strings) + len(sh.Txn)))

	a.mu.Lock()
	if ts > a.watermark {
		a.watermark = ts
	}
	if sh.LatestTS > a.primaryTS {
		a.primaryTS = sh.LatestTS
	}
	a.lastContact = a.now()
	a.mu.Unlock()
	return nil
}

// latestOK reports whether a latest (non-temporal) read may be served:
// the follower must have heard from the primary within DisconnectGrace
// and lag it by at most StalenessBound commits.
func (a *Applier) latestOK() error {
	a.mu.Lock()
	wm, pts, last := a.watermark, a.primaryTS, a.lastContact
	a.mu.Unlock()
	if a.DisconnectGrace > 0 && (last.IsZero() || a.now().Sub(last) > a.DisconnectGrace) {
		return &bolt.ServerError{Code: bolt.FailReplicaLag,
			Msg: "replica: no contact with primary within the disconnect grace; latest reads unavailable"}
	}
	if a.StalenessBound > 0 && pts-wm > a.StalenessBound {
		return &bolt.ServerError{Code: bolt.FailReplicaLag,
			Msg: fmt.Sprintf("replica: lagging primary by %d commits (bound %d); latest reads unavailable", pts-wm, a.StalenessBound)}
	}
	return nil
}

// Stats reports the apply counters, the watermark and its lag.
func (a *Applier) Stats() Stats {
	a.mu.Lock()
	wm, pts := a.watermark, a.primaryTS
	a.mu.Unlock()
	return Stats{
		BytesApplied: a.bytesApplied.Load(),
		Heartbeats:   a.heartbeats.Load(),
		Reconnects:   a.reconnects.Load(),
		Watermark:    int64(wm),
		WatermarkLag: max(int64(pts-wm), 0),
	}
}
