package replica

import (
	"context"
	"errors"
	"sync"

	"aion/internal/bolt"
	"aion/internal/hostdb"
	"aion/internal/system"
)

// Node is the per-process failover surface, installed as bolt.Options.Admin.
// It binds a system to its replication machinery so the PROMOTE and STATUS
// admin verbs (and the epoch piggybacked on every HELLO) act on one
// coherent node:
//
//   - on a follower it owns the Follower loop, so promotion can stop the
//     stream BEFORE flipping the role — no shipment is ever racing the
//     epoch advance;
//   - on a primary it reports role/epoch/watermark and folds observed
//     epochs into the fence, which is how a deposed primary learns of its
//     demotion from the first client or follower that connects at the new
//     epoch.
type Node struct {
	sys     *system.System
	applier *Applier

	mu           sync.Mutex
	stopFollower context.CancelFunc
	followerDone chan struct{}
	followerErr  error
}

// NewNode creates the admin surface over a system. applier may be nil on a
// pure primary with no replication ingest.
func NewNode(sys *system.System, applier *Applier) *Node {
	return &Node{sys: sys, applier: applier}
}

// StartFollower launches f.Run in a goroutine under a cancellable context
// derived from ctx, remembering the handle so PromoteNode can stop the
// stream first. Calling it twice replaces the handle; stop the previous
// follower first.
func (n *Node) StartFollower(ctx context.Context, f *Follower) {
	cctx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	n.mu.Lock()
	n.stopFollower = cancel
	n.followerDone = done
	n.mu.Unlock()
	go func() {
		defer close(done)
		err := f.Run(cctx)
		n.mu.Lock()
		n.followerErr = err
		n.mu.Unlock()
	}()
}

// StopFollower cancels the follower loop and waits for it to exit,
// returning its final error (nil for clean stops). Safe to call when no
// follower is running.
func (n *Node) StopFollower() error {
	n.mu.Lock()
	cancel, done := n.stopFollower, n.followerDone
	n.stopFollower, n.followerDone = nil, nil
	n.mu.Unlock()
	if cancel == nil {
		return nil
	}
	cancel()
	<-done
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.followerErr
}

// FollowerDone returns a channel closed when the most recently started
// follower loop exits, or nil when none was started. Check FollowerErr
// afterwards: nil means a clean stop (cancellation or promotion), non-nil
// means divergence fail-stop.
func (n *Node) FollowerDone() <-chan struct{} {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.followerDone
}

// FollowerErr returns the follower loop's exit error (nil while running or
// after a clean stop). A non-nil value means the node fail-stopped on
// divergence.
func (n *Node) FollowerErr() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.followerErr
}

// PromoteNode implements bolt.Admin: stop the replication stream, advance
// the fencing epoch past everything this node has observed, persist, and
// flip writable. The new epoch then fences the old primary the moment it
// hears it (HELLO, replicate request, or a client probing STATUS).
func (n *Node) PromoteNode() (uint64, error) {
	if n.applier != nil {
		if err := n.applier.Err(); err != nil {
			// A diverged follower's log is not a prefix of the cluster's
			// history; making it the authority would institutionalize the
			// divergence.
			return 0, &bolt.ServerError{Code: bolt.FailDiverged,
				Msg: "replica: refusing to promote a diverged follower: " + err.Error()}
		}
	}
	if err := n.StopFollower(); err != nil {
		return 0, &bolt.ServerError{Code: bolt.FailDiverged,
			Msg: "replica: refusing to promote after stream fail-stop: " + err.Error()}
	}
	epoch := n.sys.Host.Epoch() + 1
	if err := n.sys.Host.Promote(epoch); err != nil {
		switch {
		case errors.Is(err, hostdb.ErrFenced):
			return 0, &bolt.ServerError{Code: bolt.FailFenced, Msg: err.Error()}
		case errors.Is(err, hostdb.ErrStaleEpoch):
			// Raced another promotion; report the epoch that won.
			if n.sys.Host.Role() == hostdb.RolePrimary {
				return n.sys.Host.Epoch(), nil
			}
			return 0, &bolt.ServerError{Code: bolt.FailGeneric, Msg: err.Error()}
		}
		return 0, err
	}
	return epoch, nil
}

// NodeStatus implements bolt.Admin: the node's live role, fencing epoch,
// and the highest commit timestamp it can serve (the replicated watermark
// on a follower, the commit clock on a primary or fenced ex-primary).
func (n *Node) NodeStatus() bolt.NodeStatus {
	role := n.sys.Host.Role()
	st := bolt.NodeStatus{Role: role.String(), Epoch: n.sys.Host.Epoch()}
	if n.applier != nil && role == hostdb.RoleReplica {
		st.Watermark = int64(n.applier.Watermark())
	} else {
		st.Watermark = int64(n.sys.Host.Clock())
	}
	return st
}

// ObserveEpoch implements bolt.Admin: fold an epoch seen on the wire into
// the fence (demoting a stale primary as a side effect) and return the
// node's epoch afterwards. Persistence failures keep the old epoch — the
// caller only needs the current value, and a node that cannot persist an
// observation must not act on it.
func (n *Node) ObserveEpoch(epoch uint64) uint64 {
	cur, _, err := n.sys.Host.ObserveEpoch(epoch)
	if err != nil {
		return n.sys.Host.Epoch()
	}
	return cur
}
