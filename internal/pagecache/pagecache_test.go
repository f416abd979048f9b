package pagecache

import (
	"fmt"
	"path/filepath"
	"testing"

	"aion/internal/vfs"
)

func TestAllocateGetRoundTrip(t *testing.T) {
	c := OpenMem(16)
	defer c.Close()
	id, data, err := c.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	copy(data, "hello page")
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

// The ring orders the unpinned dirty frames by their last Release: a page touched
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
		if _, cached := c.frames[want.id]; cached != want.cached {
			t.Errorf("page %d cached = %v, want %v", want.id, cached, want.cached)
		}
	}
}

// TestPoolSharesOneBudget: caches opened on one pool evict each other's least
// recently used dirty pages, hold no more than the budget together, copy
// evicted pages back intact (the frame's buffer is reused, never its
// contents), and give their share back when closed.
func TestPoolSharesOneBudget(t *testing.T) {
	fs, pool := vfs.NewFaultFS(), NewPool(8)
	var cs [2]*Cache
	for i := range cs {
		c, err := pool.OpenFS(fs, fmt.Sprintf("c%d.idx", i))
		if err != nil {
			t.Fatal(err)
		}
		cs[i] = c
	}
	for p := 0; p < 12; p++ { // 24 pages through a budget of 8
		for i, c := range cs {
			id, data, err := c.Allocate()
			if err != nil || id != PageID(p) {
				t.Fatal(id, err)
			}
			for j := range data {
				data[j] = byte(16*i + p)
			}
			c.Release(id)
		}
	}
	if pool.resident != 8 || len(cs[0].frames)+len(cs[1].frames) != 8 {
		t.Fatalf("the pool holds %d frames (%d + %d), want its budget of 8", pool.resident, len(cs[0].frames), len(cs[1].frames))
	}
	if ev := cs[0].Stats().Evictions + cs[1].Stats().Evictions; ev != 16 {
		t.Errorf("%d evictions, want 16", ev)
	}
	// cs[1]'s writes push cs[0]'s pages out: the budget goes where the use is.
	for round := 0; round < 2; round++ {
		for p := 0; p < 8; p++ {
			data, err := cs[1].GetMut(PageID(p))
			if err != nil {
				t.Fatal(err)
			}
			if data[0] != byte(16+p) || data[PageSize-1] != byte(16+p) {
				t.Fatalf("page %d of the second cache reads %d..%d, want %d", p, data[0], data[PageSize-1], 16+p)
			}
			cs[1].Release(PageID(p))
		}
	}
	if len(cs[0].frames) != 0 || len(cs[1].frames) != 8 {
		t.Errorf("after writing only the second cache the frames are %d + %d, want 0 + 8", len(cs[0].frames), len(cs[1].frames))
	}
	if st := cs[1].Stats(); st.Hits != 8 {
		t.Errorf("the second pass over 8 held pages hit %d times, want 8", st.Hits)
	}
	if err := cs[1].Close(); err != nil {
		t.Fatal(err)
	}
	if pool.resident != 0 || pool.lru.next != &pool.lru {
		t.Errorf("a closed cache left %d frames in the pool", pool.resident)
	}
	if data, err := cs[0].Get(3); err != nil || data[7] != 3 {
		t.Errorf("the first cache after the second closed: %v", err)
	}
	cs[0].Release(3)
	if err := cs[0].Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMissReusesTheEvictedBuffer: at capacity a miss — a GetMut copying a
// page into a frame — and an Allocate take over the evicted frame's page
// buffer, which Allocate zeroes, instead of allocating another.
func TestMissReusesTheEvictedBuffer(t *testing.T) {
	c, err := Open(filepath.Join(t.TempDir(), "pages.idx"), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 16; i++ {
		id, data, err := c.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if data[100] != 0 {
			t.Fatalf("allocated page %d is not zeroed", id)
		}
		for j := range data {
			data[j] = 0xee
		}
		c.Release(id)
	}
	next := PageID(0)
	allocs := testing.AllocsPerRun(64, func() {
		data, err := c.GetMut(next % 16)
		if err != nil || data[100] != 0xee {
			t.Fatal(err)
		}
		c.Release(next % 16)
		next++ // a cyclic walk over twice the capacity always misses
	})
	if allocs > 1 { // the frame; not the 4 KiB buffer
		t.Errorf("a miss at capacity allocates %.0f times, want 1", allocs)
	}
	if st := c.Stats(); st.Hits != 0 {
		t.Errorf("%d hits, the test meant every GetMut to miss", st.Hits)
	}
}
