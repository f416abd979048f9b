package lineagestore

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"aion/internal/enc"
	"aion/internal/model"
	"aion/internal/pagecache"
	"aion/internal/strstore"
	"aion/internal/testkit/vfstest"
	"aion/internal/vfs"
)

func applyChain(t *testing.T, s *Store, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		u := model.AddNode(model.Timestamp(i+1), model.NodeID(i), []string{"N"},
			model.Properties{"v": model.IntValue(int64(i))})
		if err := s.Apply(u); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOpenResetsTruncatedIndex: a crash can cut an index file mid-page (or
// lose the tail the B+Tree meta points into). The LineageStore is derived
// data, so Open must recover by resetting to empty — never by failing or by
// serving a half-tree.
func TestOpenResetsTruncatedIndex(t *testing.T) {
	dir := t.TempDir()
	codec := enc.NewCodec(strstore.NewMem())
	s, err := Open(codec, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	applyChain(t, s, 64)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	// Cut nodes.idx down to one page + a torn fragment: the meta page still
	// carries a valid magic but the root it points at is gone.
	path := filepath.Join(dir, "nodes.idx")
	if err := os.Truncate(path, pagecache.PageSize+50); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(codec, Options{Dir: dir})
	if err != nil {
		t.Fatalf("open over a truncated index must reset, got %v", err)
	}
	if s2.holdsData() {
		t.Fatal("the corruption recovery must leave empty indexes")
	}
	if s2.AppliedThrough() != -1 {
		t.Errorf("reset store AppliedThrough = %d, want -1", s2.AppliedThrough())
	}
	// The reset store is fully usable: re-apply and query.
	applyChain(t, s2, 64)
	n, err := s2.GetNodeContext(context.Background(), model.NodeID(7), 64, 65)
	if err != nil || len(n) == 0 {
		t.Fatalf("GetNode after reset+reapply: %v %v", n, err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// A clean reopen after the reset must not reset again.
	s3, err := Open(codec, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !s3.holdsData() {
		t.Error("clean reopen must keep the re-applied indexes")
	}
}

// TestOpenResetsBadMetaMagic: garbage in the meta page (torn page zero) is
// detected by the B+Tree magic check and also recovers by reset.
func TestOpenResetsBadMetaMagic(t *testing.T) {
	dir := t.TempDir()
	codec := enc.NewCodec(strstore.NewMem())
	s, err := Open(codec, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	applyChain(t, s, 8)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, "in.idx"), os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("garbage!"), 0); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(codec, Options{Dir: dir})
	if err != nil {
		t.Fatalf("open over a corrupt meta page must reset, got %v", err)
	}
	if s2.holdsData() {
		t.Fatal("the corruption recovery must leave empty indexes")
	}
}

// failOnceFS fails the first Remove of one path.
type failOnceFS struct {
	vfs.FS
	path  string
	fired bool
}

func (f *failOnceFS) Remove(path string) error {
	if path == f.path && !f.fired {
		f.fired = true
		return vfstest.ErrInjected
	}
	return f.FS.Remove(path)
}

// TestInvalidationPrecedesTheFirstWrite: when the checkpoint cannot be
// removed, the apply that tried must fail before it dirties a page — a
// later flush of that page would put an index file ahead of a checkpoint
// that is still on disk. (The crash sweeps cannot see this order: they stop
// the disk for good at the fault, so nothing later reaches it.)
func TestInvalidationPrecedesTheFirstWrite(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	codec := enc.NewCodec(strstore.NewMem())
	s, err := Open(codec, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	applyChain(t, s, 10)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	fs := &failOnceFS{FS: vfs.OS, path: filepath.Join(dir, checkpointName)}
	s, err = Open(codec, Options{Dir: dir, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	extra := model.AddNode(11, 10, []string{"N"}, nil)
	if err := s.Apply(extra); !errors.Is(err, vfstest.ErrInjected) {
		t.Fatalf("Apply over an irremovable checkpoint: %v, want the injected fault", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s, err = Open(codec, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Stats(); s.AppliedThrough() != 10 || got.Updates != 10 {
		t.Fatalf("reopened at ts %d with %d updates, want the checkpoint's 10 and 10", s.AppliedThrough(), got.Updates)
	}
	if vs, err := s.GetNodeContext(ctx, 10, 0, 20); err != nil || len(vs) != 0 {
		t.Fatalf("the failed apply reached the index file: %v, %v", vs, err)
	}
	// The fault was transient: the same apply now goes through and the next
	// clean Close checkpoints it.
	if err := s.Apply(extra); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, checkpointName)); !os.IsNotExist(err) {
		t.Fatalf("checkpoint still present after an apply: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(codec, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if vs, err := s.GetNodeContext(ctx, 10, 0, 20); s.AppliedThrough() != 11 || err != nil || len(vs) != 1 {
		t.Fatalf("after the retry: applied through %d, node 10 = %v, %v", s.AppliedThrough(), vs, err)
	}
}

// TestFailedApplyBarsTheCheckpoint: a transient fault fails one apply (here
// before it wrote anything: the checkpoint could not be removed) and the next
// one applies. The indexes now hold no prefix of the owner's log, so the clean
// Close must not checkpoint them: the owner's next Open rebuilds.
func TestFailedApplyBarsTheCheckpoint(t *testing.T) {
	dir := t.TempDir()
	codec := enc.NewCodec(strstore.NewMem())
	s, err := Open(codec, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	applyChain(t, s, 10)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	fs := &failOnceFS{FS: vfs.OS, path: filepath.Join(dir, checkpointName)}
	if s, err = Open(codec, Options{Dir: dir, FS: fs}); err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(model.AddNode(11, 10, []string{"N"}, nil)); !errors.Is(err, vfstest.ErrInjected) {
		t.Fatalf("Apply over an irremovable checkpoint: %v, want the injected fault", err)
	}
	if err := s.Apply(model.AddNode(12, 11, []string{"N"}, nil)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, checkpointName)); !os.IsNotExist(err) {
		t.Fatalf("Close checkpointed indexes that skipped an update: %v", err)
	}
}

// TestCleanCloseKeepsTheWatermark: a cleanly closed store reopens at the
// timestamp it had applied through, so its monotonicity check still holds.
func TestCleanCloseKeepsTheWatermark(t *testing.T) {
	dir := t.TempDir()
	codec := enc.NewCodec(strstore.NewMem())
	s, err := Open(codec, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	applyChain(t, s, 5)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(codec, Options{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.AppliedThrough(); got != 5 {
		t.Errorf("reopened at ts %d, want 5", got)
	}
	if err := s.Apply(model.AddNode(2, 99, []string{"N"}, nil)); !errors.Is(err, model.ErrNonMonotonic) {
		t.Errorf("Apply at ts 2 after reopening at 5: %v, want ErrNonMonotonic", err)
	}
	if err := s.Apply(model.AddNode(6, 5, []string{"N"}, nil)); err != nil {
		t.Errorf("Apply at ts 6: %v", err)
	}
}
