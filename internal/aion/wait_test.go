package aion

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aion/internal/model"
	"aion/internal/vfs"
)

// TestHybridLagReadsWait: a read issued right after its own write, before the
// hybrid cascade can have caught up, waits for the cascade and is answered by
// the LineageStore, validity interval included.
func TestHybridLagReadsWait(t *testing.T) {
	db := openDB(t, Options{})
	for i := 0; i < 50; i++ {
		u := model.AddNode(model.Timestamp(i+1), model.NodeID(i), nil, model.Properties{"i": model.IntValue(int64(i))})
		if err := db.Apply(u); err != nil {
			t.Fatal(err)
		}
		ns, err := db.GetNode(u.NodeID, u.TS, u.TS)
		if err != nil || len(ns) != 1 || ns[0].Props["i"].Int() != int64(i) || ns[0].Valid != (model.Interval{Start: u.TS, End: model.TSInfinity}) {
			t.Fatalf("node %d read right after its write: %v, %v", i, ns, err)
		}
	}
	if lineage, timeStore := db.PlannerDecisions(); lineage != 50 || timeStore != 0 {
		t.Errorf("%d reads answered by the LineageStore and %d by the TimeStore, want 50 and 0", lineage, timeStore)
	}
}

// TestLineageLagReadsWait: with a whole history queued behind the cascade, a
// read at ts 21 returns only once the LineageStore has applied past it.
func TestLineageLagReadsWait(t *testing.T) {
	db := openDB(t, Options{})
	for _, u := range socialUpdates() {
		if err := db.Apply(u); err != nil {
			t.Fatal(err)
		}
	}
	ns, err := db.GetNode(0, 21, 21)
	if err != nil || len(ns) != 1 || !ns[0].HasLabel("VIP") || ns[0].Valid != (model.Interval{Start: 21, End: model.TSInfinity}) {
		t.Errorf("GetNode(0) at 21 = %v, %v", ns, err)
	}
	if got := db.LineageStore().AppliedThrough(); got != 22 {
		t.Errorf("the read returned with the LineageStore at ts %d, short of the 22 it must wait for", got)
	}
}

// syncDirFS calls *hook, once set, before every SyncDir of dir.
type syncDirFS struct {
	vfs.FS
	dir  string
	hook *atomic.Pointer[func() error]
}

func (f syncDirFS) SyncDir(dir string) error {
	if h := f.hook.Load(); h != nil && dir == f.dir {
		if err := (*h)(); err != nil {
			return err
		}
	}
	return f.FS.SyncDir(dir)
}

// heldCascade reopens a cleanly closed hybrid store of socialUpdates (ts 1 to
// 22) and applies node 100 at ts 23. The cascade's first apply after the
// reopen removes the lineage checkpoint and syncs the lineage directory: hook
// runs before that sync, and may hold it or fail it. The store is closed at
// cleanup, its error ignored.
func heldCascade(t *testing.T, hook func() error) *DB {
	t.Helper()
	dir := t.TempDir()
	loadAndClose(t, Options{Dir: dir})
	var armed atomic.Pointer[func() error]
	db, err := Open(Options{Dir: dir, FS: syncDirFS{FS: vfs.OS, dir: filepath.Join(dir, "lineage"), hook: &armed}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })
	armed.Store(&hook)
	if err := db.Apply(model.AddNode(23, 100, []string{"N"}, nil)); err != nil {
		t.Fatal(err)
	}
	return db
}

// hold returns a hook that parks the cascade until release is closed, and a
// channel that receives once it has parked.
func hold(release <-chan struct{}) (hook func() error, parked <-chan struct{}) {
	ch := make(chan struct{}, 1)
	return func() error {
		select {
		case ch <- struct{}{}:
		default:
		}
		<-release
		return nil
	}, ch
}

// TestAppliedReadsSkipTheInvalidationFsync: while the cascade's first apply
// after a reopen syncs the lineage directory, a read at a timestamp the
// LineageStore already holds is served at once — the fsync runs before the
// apply takes the store's lock.
func TestAppliedReadsSkipTheInvalidationFsync(t *testing.T) {
	release := make(chan struct{})
	hook, parked := hold(release)
	db := heldCascade(t, hook)
	defer close(release)
	<-parked
	done := make(chan error, 1)
	go func() {
		ns, err := db.GetNode(0, 21, 21)
		if err == nil && (len(ns) != 1 || !ns[0].HasLabel("VIP")) {
			err = fmt.Errorf("GetNode(0) at 21 = %v", ns)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(5 * time.Second):
		t.Error("a read at ts 21, which the LineageStore holds, waited for the cascade's directory fsync")
	}
}

// TestCancelledReadStopsWaiting: a read the held cascade is behind stops
// waiting when its context ends, and is not counted as answered.
func TestCancelledReadStopsWaiting(t *testing.T) {
	release := make(chan struct{})
	hook, parked := hold(release)
	db := heldCascade(t, hook)
	<-parked
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if ns, err := db.GetNodeContext(ctx, 100, 23, 23); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("GetNode at 23 with the cascade held at 22: %v, %v; want the deadline", ns, err)
	}
	cancelled, cancelNow := context.WithCancel(context.Background())
	cancelNow()
	if _, err := db.GetRelationshipsContext(cancelled, 0, model.Both, 23, 23); !errors.Is(err, context.Canceled) {
		t.Errorf("GetRelationships at 23 under a cancelled context: %v", err)
	}
	close(release)
	if ns, err := db.GetNode(100, 23, 23); err != nil || len(ns) != 1 {
		t.Errorf("GetNode(100) at 23 once released: %v, %v", ns, err)
	}
	if lineage, _ := db.PlannerDecisions(); lineage != 1 {
		t.Errorf("%d reads counted as answered, want the one that was", lineage)
	}
}

// TestConcurrentReadsAndClose: reads waiting for a held cascade, and reads and
// WaitSyncs in a loop, race Close. Each read is answered right or fails with
// the store closed; none panics, and Close waits for those under way.
func TestConcurrentReadsAndClose(t *testing.T) {
	release := make(chan struct{})
	hook, parked := hold(release)
	db := heldCascade(t, hook)
	<-parked
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				var err error
				switch i % 4 {
				case 0:
					var ns []*model.Node
					if ns, err = db.GetNode(100, 23, 23); err == nil && len(ns) != 1 {
						err = fmt.Errorf("GetNode(100) at 23 = %v", ns)
					}
				case 1:
					var rs [][]*model.Rel
					if rs, err = db.GetRelationships(4, model.Outgoing, 21, 21); err == nil && len(rs) != 1 {
						err = fmt.Errorf("node 4's out-relationships at 21 = %v", rs)
					}
				case 2:
					_, err = db.GetRelationship(0, 11, 23)
				case 3:
					if err = db.WaitSync(); err == nil {
						_, err = db.GetNode(0, 0, 23)
					}
				}
				if errors.Is(err, errClosed) {
					return
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	closed := make(chan error, 1)
	go func() { closed <- db.Close() }()
	for !db.closed.Load() { // Close has begun: it waits for the held cascade
		runtime.Gosched()
	}
	close(release)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if _, err := db.GetNode(0, 21, 21); !errors.Is(err, errClosed) {
		t.Errorf("GetNode after Close: %v, want the store closed", err)
	}
}

// TestReadsAfterACascadeFailure: once the cascade has failed, a read above
// what it applied returns the sticky error instead of waiting for ever, and a
// read at or below it is served.
func TestReadsAfterACascadeFailure(t *testing.T) {
	db := heldCascade(t, func() error { return vfs.ErrInjected })
	if _, err := db.GetNode(100, 23, 23); !errors.Is(err, vfs.ErrInjected) {
		t.Errorf("GetNode at 23 after the cascade failed there: %v, want the injected fault", err)
	}
	if err := db.WaitSync(); !errors.Is(err, vfs.ErrInjected) {
		t.Errorf("WaitSync: %v, want the injected fault", err)
	}
	if got := db.LineageStore().AppliedThrough(); got != 22 {
		t.Fatalf("the LineageStore applied through %d, want 22", got)
	}
	for _, ts := range []model.Timestamp{21, 22} {
		if ns, err := db.GetNode(0, ts, ts); err != nil || len(ns) != 1 || !ns[0].HasLabel("VIP") {
			t.Errorf("GetNode(0) at %d: %v, %v", ts, ns, err)
		}
	}
	if err := db.Close(); !errors.Is(err, vfs.ErrInjected) {
		t.Errorf("Close: %v, want the injected fault", err)
	}
}
