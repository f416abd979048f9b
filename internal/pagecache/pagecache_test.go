package pagecache

import (
	"path/filepath"
	"testing"
)

func TestAllocateGetRoundTrip(t *testing.T) {
	c := OpenMem(16)
	defer c.Close()
	id, data, err := c.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	copy(data, "hello page")
	c.MarkDirty(id)
	c.Release(id)

	got, err := c.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:10]) != "hello page" {
		t.Errorf("got %q", got[:10])
	}
	c.Release(id)
}

func TestEvictionWritesBack(t *testing.T) {
	c := OpenMem(8)
	defer c.Close()
	var ids []PageID
	// Allocate more pages than capacity so older ones get evicted.
	for i := 0; i < 32; i++ {
		id, data, err := c.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		data[0] = byte(i)
		c.MarkDirty(id)
		c.Release(id)
		ids = append(ids, id)
	}
	if c.Stats().Evictions == 0 {
		t.Fatal("expected evictions with capacity 8 and 32 pages")
	}
	for i, id := range ids {
		data, err := c.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if data[0] != byte(i) {
			t.Errorf("page %d: byte = %d, want %d", id, data[0], i)
		}
		c.Release(id)
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
	c.MarkDirty(id)
	c.Release(id)
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
	c2.Release(id)
}

func TestGetOutOfRange(t *testing.T) {
	c := OpenMem(8)
	defer c.Close()
	if _, err := c.Get(42); err == nil {
		t.Error("out-of-range page must error")
	}
}

func TestPinPreventsEviction(t *testing.T) {
	c := OpenMem(8)
	defer c.Close()
	id, data, err := c.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	data[0] = 0xAB
	c.MarkDirty(id)
	// Keep the page pinned while churning through the cache.
	for i := 0; i < 64; i++ {
		id2, _, err := c.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		c.Release(id2)
	}
	if data[0] != 0xAB {
		t.Error("pinned page buffer must stay valid")
	}
	c.Release(id)
}

func TestHitMissCounters(t *testing.T) {
	c := OpenMem(8)
	defer c.Close()
	id, _, _ := c.Allocate()
	c.Release(id)
	_, _ = c.Get(id)
	c.Release(id)
	s := c.Stats()
	if s.Hits == 0 {
		t.Error("expected a cache hit")
	}
	if c.DiskBytes() != PageSize {
		t.Errorf("DiskBytes = %d", c.DiskBytes())
	}
}

// Pinning and unpinning a cached page only relinks its frame in the LRU ring:
// a B+Tree descent does it once per level, on every Get and Put.
func TestGetReleaseOfCachedPageAllocatesNothing(t *testing.T) {
	c := OpenMem(8)
	defer c.Close()
	var ids [3]PageID
	for i := range ids {
		ids[i], _, _ = c.Allocate()
		c.Release(ids[i])
	}
	n := testing.AllocsPerRun(100, func() {
		for _, id := range ids {
			if _, err := c.Get(id); err != nil {
				t.Fatal(err)
			}
		}
		for _, id := range ids {
			c.Release(id)
		}
	})
	if n != 0 {
		t.Errorf("Get and Release of cached pages allocate %.0f times, want 0", n)
	}
}

// The ring orders the unpinned frames by their last Release: a page touched
// again outlives the ones released before it, a pinned one is never the
// victim, and a page released twice in a row stays where it was.
func TestEvictionFollowsLastRelease(t *testing.T) {
	c := OpenMem(8)
	defer c.Close()
	var ids [8]PageID
	for i := range ids {
		ids[i], _, _ = c.Allocate()
		c.Release(ids[i])
	}
	c.Release(ids[0]) // not pinned: a no-op, ids[0] stays the oldest
	_, _ = c.Get(ids[0])
	c.Release(ids[0]) // now the newest
	_, _ = c.Get(ids[1])
	for i := 0; i < 2; i++ { // evicts ids[2] and ids[3]: ids[1] is pinned, ids[0] fresh
		id, _, err := c.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		c.Release(id)
	}
	c.Release(ids[1])
	if got := c.Stats().Evictions; got != 2 {
		t.Fatalf("%d evictions, want 2", got)
	}
	for _, want := range []struct {
		id     PageID
		cached bool
	}{{ids[0], true}, {ids[1], true}, {ids[4], true}, {ids[2], false}, {ids[3], false}} {
		before := c.Stats().Hits
		if _, err := c.Get(want.id); err != nil {
			t.Fatal(err)
		}
		c.Release(want.id)
		if cached := c.Stats().Hits == before+1; cached != want.cached {
			t.Errorf("page %d cached = %v, want %v", want.id, cached, want.cached)
		}
	}
}
