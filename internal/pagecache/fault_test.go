package pagecache

import (
	"errors"
	"testing"

	"aion/internal/vfs"
)

// TestFlushSyncFailStop: an injected fsync failure surfaces from Flush and
// every later Flush fails with the original error instead of silently
// succeeding.
func TestFlushSyncFailStop(t *testing.T) {
	fs := vfs.NewFaultFS()
	c, err := OpenFS(fs, "d/pages.idx", 8)
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := c.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	c.Release(id)
	// Flush = one writeback + one fsync; fail the fsync.
	fs.SetFailAfter(fs.Ops() + 2)
	if err := c.Flush(); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("flush must surface the injected fsync error, got %v", err)
	}
	fs.SetFailAfter(0) // disk "recovers" — the cache must not
	if err := c.Flush(); err == nil {
		t.Error("flush after failed fsync must fail-stop")
	}
	if err := c.Close(); err == nil {
		t.Error("close after failed fsync must fail-stop")
	}
}

// TestWritebackFailStop: a failed eviction writeback poisons the cache too.
func TestWritebackFailStop(t *testing.T) {
	fs := vfs.NewFaultFS()
	c, err := OpenFS(fs, "d/pages.idx", 8)
	if err != nil {
		t.Fatal(err)
	}
	var ids []PageID
	for i := 0; i < 8; i++ {
		id, _, err := c.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		c.Release(id)
		ids = append(ids, id)
	}
	fs.SetFailAfter(fs.Ops() + 1) // next writeback fails
	if _, _, err := c.Allocate(); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("allocate must surface the writeback error, got %v", err)
	}
	fs.SetFailAfter(0)
	if err := c.Flush(); err == nil {
		t.Error("flush after failed writeback must fail-stop")
	}
	_ = ids
}

// TestReopenSeesFlushedPages: pages flushed through the vfs are visible on
// reopen through the same FaultFS.
func TestReopenSeesFlushedPages(t *testing.T) {
	fs := vfs.NewFaultFS()
	c, err := OpenFS(fs, "d/pages.idx", 8)
	if err != nil {
		t.Fatal(err)
	}
	id, data, err := c.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	copy(data, []byte("page-zero"))
	c.Release(id)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := OpenFS(fs, "d/pages.idx", 8)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.PageCount() != 1 {
		t.Fatalf("page count after reopen = %d, want 1", c2.PageCount())
	}
	got, err := c2.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Release(id)
	if string(got[:9]) != "page-zero" {
		t.Errorf("page after reopen = %q", got[:9])
	}
}
