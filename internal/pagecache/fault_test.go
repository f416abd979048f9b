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
	c, err := OpenFS(fs, "d/pages.idx")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Allocate(); err != nil {
		t.Fatal(err)
	}
	// Flush is one fsync; fail it.
	fs.SetFailAfter(fs.Ops() + 1)
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

// TestFailedAllocateFailsStop: a failed extension of the file leaves the page
// count as it was, and poisons the cache: the next Flush fails with it even
// though the disk has recovered.
func TestFailedAllocateFailsStop(t *testing.T) {
	fs := vfs.NewFaultFS()
	c, err := OpenFS(fs, "d/pages.idx")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, _, err := c.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	fs.SetFailAfter(fs.Ops() + 1) // the next extension fails
	if _, _, err := c.Allocate(); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("allocate must surface the extension error, got %v", err)
	}
	if n := c.PageCount(); n != 8 {
		t.Errorf("a failed Allocate left %d pages, want 8", n)
	}
	fs.SetFailAfter(0)
	if err := c.Flush(); !errors.Is(err, vfs.ErrInjected) {
		t.Errorf("flush after a failed extension = %v, want the injected error", err)
	}
}

// TestReopenSeesFlushedPages: pages flushed through the vfs are visible on
// reopen through the same FaultFS.
func TestReopenSeesFlushedPages(t *testing.T) {
	fs := vfs.NewFaultFS()
	c, err := OpenFS(fs, "d/pages.idx")
	if err != nil {
		t.Fatal(err)
	}
	id, data, err := c.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	copy(data, []byte("page-zero"))
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := OpenFS(fs, "d/pages.idx")
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
	if string(got[:9]) != "page-zero" {
		t.Errorf("page after reopen = %q", got[:9])
	}
}
