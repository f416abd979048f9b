package pagecache

import (
	"path/filepath"
	"testing"
)

func TestAllocateGetRoundTrip(t *testing.T) {
	c := OpenMem()
	defer c.Close()
	id, data, err := c.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	copy(data, "hello page")

	got, err := c.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:10]) != "hello page" {
		t.Errorf("got %q", got[:10])
	}
}

func TestFileBackedPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	c, err := Open(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	id, data, err := c.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	copy(data, "durable")
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := Open(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.PageCount() != 1 {
		t.Fatalf("PageCount = %d, want 1", c2.PageCount())
	}
	got, err := c2.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:7]) != "durable" {
		t.Errorf("got %q", got[:7])
	}
}

func TestGetOutOfRange(t *testing.T) {
	c := OpenMem()
	defer c.Close()
	if _, err := c.Get(42); err == nil {
		t.Error("out-of-range page must error")
	}
}

// TestHitMissCounters: every Get and GetMut is a hit; nothing misses or is
// evicted, since no page is read into the heap.
func TestHitMissCounters(t *testing.T) {
	c := OpenMem()
	defer c.Close()
	id, _, _ := c.Allocate()
	_, _ = c.Get(id)
	_, _ = c.GetMut(id)
	if s := c.Stats(); s != (Stats{Hits: 2}) {
		t.Errorf("stats %+v, want 2 hits", s)
	}
	if c.DiskBytes() != PageSize {
		t.Errorf("DiskBytes = %d", c.DiskBytes())
	}
}

// Get and GetMut of a page already in the cache allocate nothing: each is a
// slice of the mapped view, not a copy into a fresh buffer.
func TestGetReleaseOfCachedPageAllocatesNothing(t *testing.T) {
	c := OpenMem()
	defer c.Close()
	var ids [3]PageID
	for i := range ids {
		ids[i], _, _ = c.Allocate()
	}
	n := testing.AllocsPerRun(100, func() {
		for _, id := range ids {
			if _, err := c.Get(id); err != nil {
				t.Fatal(err)
			}
			if _, err := c.GetMut(id); err != nil {
				t.Fatal(err)
			}
		}
	})
	if n != 0 {
		t.Errorf("Get and GetMut of cached pages allocate %.0f times, want 0", n)
	}
}
