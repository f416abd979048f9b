package replica

import (
	"errors"
	"strings"
	"testing"

	"aion/internal/bolt"
	"aion/internal/cypher"
	"aion/internal/hostdb"
	"aion/internal/model"
	"aion/internal/system"
	"aion/internal/testkit/vfstest"
)

// commitValue commits one node with a fixed-length string property, so two
// nodes at the same clock produce same-length but different-content log
// suffixes — the divergence shape only the tail digest can catch.
func commitValue(t *testing.T, s *system.System, id model.NodeID, v string) {
	t.Helper()
	_, err := s.Host.Run(func(tx *hostdb.Tx) error {
		return tx.CreateNodeWithID(id, []string{"D"}, model.Properties{"v": model.StringValue(v)})
	})
	if err != nil {
		t.Fatalf("commit %d: %v", id, err)
	}
}

func TestPromoteNodeFlipsFollowerAndFencesOldPrimary(t *testing.T) {
	pfs, ffs := vfstest.NewFaultFS(), vfstest.NewFaultFS()
	p := openNode(t, pfs, "primary", false)
	defer p.Close()
	f := openNode(t, ffs, "follower", true)
	defer f.Close()

	drive(t, p, 10)
	src := NewSource(p)
	app := NewApplier(f)
	if err := pump(src, app, 1<<20); err != nil {
		t.Fatal(err)
	}

	node := NewNode(f, app)
	st := node.NodeStatus()
	if st.Role != "replica" || st.Epoch != 0 {
		t.Fatalf("pre-promote status %+v", st)
	}
	epoch, err := node.PromoteNode()
	if err != nil || epoch != 1 {
		t.Fatalf("promote = %d, %v", epoch, err)
	}
	st = node.NodeStatus()
	if st.Role != "primary" || st.Epoch != 1 {
		t.Fatalf("post-promote status %+v", st)
	}
	// The promoted node is writable and its gate steps aside.
	commitValue(t, f, 1000, "post-promotion")
	if err := app.Gate(&cypher.Statement{Create: &cypher.CreateStmt{}}, nil); err != nil {
		t.Fatalf("gate on promoted node = %v, want nil", err)
	}

	// The old primary learns the new epoch (as it would from any HELLO or
	// replicate request at epoch 1) and fences itself.
	oldNode := NewNode(p, nil)
	if got := oldNode.ObserveEpoch(epoch); got != 1 {
		t.Fatalf("old primary observed epoch %d", got)
	}
	if p.Host.Role() != hostdb.RoleFenced {
		t.Fatalf("old primary role %v, want fenced", p.Host.Role())
	}
	if _, err := p.Host.Run(func(tx *hostdb.Tx) error {
		return tx.CreateNodeWithID(2000, nil, nil)
	}); !errors.Is(err, hostdb.ErrFenced) {
		t.Fatalf("fenced commit err = %v", err)
	}
	// Promoting a fenced node is refused with the typed fencing failure.
	if _, err := oldNode.PromoteNode(); err == nil {
		t.Fatal("fenced node must not promote")
	} else {
		var se *bolt.ServerError
		if !errors.As(err, &se) || se.Code != bolt.FailFenced {
			t.Fatalf("fenced promote err = %v, want FailFenced", err)
		}
	}
}

func TestAdmitRejectsDivergedRejoinByTailDigest(t *testing.T) {
	pfs, ffs := vfstest.NewFaultFS(), vfstest.NewFaultFS()
	p := openNode(t, pfs, "primary", false)
	defer p.Close()
	f := openNode(t, ffs, "follower", true)
	defer f.Close()

	drive(t, p, 8)
	src := NewSource(p)
	app := NewApplier(f)
	if err := pump(src, app, 1<<20); err != nil {
		t.Fatal(err)
	}
	node := NewNode(f, app)
	if _, err := node.PromoteNode(); err != nil {
		t.Fatal(err)
	}

	// Split brain: both nodes commit one transaction of identical length
	// but different content at the same clock, so extents line up exactly.
	commitValue(t, p, 500, "AAAA")
	commitValue(t, f, 500, "BBBB")
	ps, pt := p.Host.DurableExtents()
	fs2, ft := f.Host.DurableExtents()
	if ps != fs2 || pt != ft {
		t.Fatalf("extents differ (str %d/%d txn %d/%d); same-length divergence not constructed", ps, fs2, pt, ft)
	}

	// The demoted primary tries to rejoin the new timeline as a follower:
	// offsets match, so only the tail digest can expose the divergence.
	rejoin := NewApplier(p)
	req, err := rejoin.BuildRequest()
	if err != nil {
		t.Fatal(err)
	}
	newSrc := NewSource(f)
	se := newSrc.admit(req)
	if se == nil || se.Code != bolt.FailDiverged {
		t.Fatalf("admit = %v, want FailDiverged", se)
	}
	if !strings.Contains(se.Msg, "tail digest") {
		t.Fatalf("divergence not caught by the digest: %s", se.Msg)
	}
}

func TestAdmitFencesStalePrimaryOnHigherFollowerEpoch(t *testing.T) {
	pfs, ffs := vfstest.NewFaultFS(), vfstest.NewFaultFS()
	p := openNode(t, pfs, "primary", false)
	defer p.Close()
	f := openNode(t, ffs, "follower", true)
	defer f.Close()

	drive(t, p, 3)
	src := NewSource(p)
	app := NewApplier(f)
	if err := pump(src, app, 1<<20); err != nil {
		t.Fatal(err)
	}
	// The follower was promoted elsewhere (epoch 1) and — by operator
	// error — is pointed back at the old primary as if it were still a
	// follower. Its replicate request carries epoch 1; the act of admitting
	// it demotes the stale primary before a single byte ships.
	if err := NewNode(f, app).StopFollower(); err != nil {
		t.Fatal(err)
	}
	if err := f.Host.Promote(1); err != nil {
		t.Fatal(err)
	}
	req, err := app.BuildRequest()
	if err != nil {
		t.Fatal(err)
	}
	se := src.admit(req)
	if se == nil || se.Code != bolt.FailFenced {
		t.Fatalf("admit = %v, want FailFenced", se)
	}
	if p.Host.Role() != hostdb.RoleFenced || p.Host.Epoch() != 1 {
		t.Fatalf("stale primary role=%v epoch=%d, want fenced/1", p.Host.Role(), p.Host.Epoch())
	}
	if m := src.Stats(); m.FencedStreams != 1 {
		t.Fatalf("fenced streams = %d", m.FencedStreams)
	}
}

func TestApplyAfterPromotionStopsCleanlyWithoutPoisoning(t *testing.T) {
	pfs, ffs := vfstest.NewFaultFS(), vfstest.NewFaultFS()
	p := openNode(t, pfs, "primary", false)
	defer p.Close()
	f := openNode(t, ffs, "follower", true)
	defer f.Close()

	drive(t, p, 2)
	src := NewSource(p)
	app := NewApplier(f)
	so, to := app.Offsets()
	sh, err := src.Shipment(so, to, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	// Promotion lands between shipment build and apply (the in-flight
	// frame race): the apply must stop cleanly, not mark divergence.
	if err := f.Host.Promote(1); err != nil {
		t.Fatal(err)
	}
	if err := app.Apply(sh); !errors.Is(err, ErrPromoted) {
		t.Fatalf("apply after promote = %v, want ErrPromoted", err)
	}
	if app.Err() != nil {
		t.Fatalf("applier poisoned by promotion race: %v", app.Err())
	}
}
