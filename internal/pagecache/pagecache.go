// Package pagecache is the page cache beneath Aion's B+Trees, standing in
// for the Neo4j page cache the paper builds on, which lives off the JVM heap.
// A clean page has one copy, the kernel's: Get serves it from a read-only
// view of the file (a shared mapping on an OS file). Only a page a writer
// writes gets a heap frame, from GetMut or Allocate, and only until its
// writeback on eviction or flush; an LRU over those frames bounds them, which
// gives the trees out-of-core writes with bounded memory.
package pagecache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"aion/internal/vfs"
)

// PageSize is the fixed page size in bytes.
const PageSize = 4096

// PageID identifies a page by its index in the backing file.
type PageID uint64

// frame is a dirty page: one a writer holds or has written and that is not
// yet written back.
type frame struct {
	owner *Cache
	id    PageID
	data  []byte
	pins  int
	// prev and next link the unpinned frames into the LRU ring; both nil
	// while pinned. The links live in the frame so that pinning and
	// unpinning a held page relinks and allocates nothing.
	prev, next *frame
}

// Stats reports cache counters. Every Get is a hit; a GetMut is a hit when
// the page has a frame and a miss when it copies the page into one.
type Stats struct {
	Hits, Misses, Evictions uint64
	Frames                  int // frames held now: dirty pages
}

// Pool is a budget of dirty pages: one LRU ring, one capacity and one mutex
// over the frames of every cache opened on it, so that several files share
// their memory by recency rather than by a fixed split.
type Pool struct {
	mu       sync.Mutex
	lru      frame // the LRU ring's sentinel: next = most, prev = least recently used
	capacity int
	resident int // frames held, over all the pool's caches
}

// NewPool returns a budget of capacityPages pages (at least 8).
func NewPool(capacityPages int) *Pool {
	p := &Pool{capacity: max(capacityPages, 8)}
	p.lru.prev, p.lru.next = &p.lru, &p.lru
	return p
}

// Cache is the page cache of one file. All methods are safe for concurrent
// use, provided a page's readers (Get) exclude its writers (GetMut,
// Allocate), as a tree's lock makes them: a view page is the file's bytes,
// which a writeback of a frame changes. A slice from Get or GetMut is stable
// until its Release.
type Cache struct {
	pool   *Pool // its mutex guards frames and failed
	file   vfs.File
	frames map[PageID]*frame
	failed error // sticky: first writeback/sync error; later writes fail-stop

	// Read without the mutex by a Get on a frameless cache.
	nframes                 atomic.Int64 // len(frames)
	pageCount               atomic.Uint64
	hits, misses, evictions atomic.Uint64
}

// Open creates or opens a file-backed cache holding at most capacityPages
// dirty pages in memory, a budget of its own.
func Open(path string, capacityPages int) (*Cache, error) {
	return OpenFS(vfs.OS, path, capacityPages)
}

// OpenFS is Open on an explicit filesystem.
func OpenFS(fs vfs.FS, path string, capacityPages int) (*Cache, error) {
	return NewPool(capacityPages).OpenFS(fs, path)
}

// OpenFS opens a file-backed cache whose frames count against the pool.
func (p *Pool) OpenFS(fs vfs.FS, path string) (*Cache, error) {
	f, err := fs.OpenFile(path)
	if err != nil {
		return nil, fmt.Errorf("pagecache: open: %w", err)
	}
	size, err := f.Size()
	if err != nil {
		return nil, errors.Join(fmt.Errorf("pagecache: stat: %w", err), f.Close())
	}
	c := &Cache{pool: p, file: f, frames: make(map[PageID]*frame)}
	c.pageCount.Store(uint64(size) / PageSize)
	return c, nil
}

// OpenMem opens a cache over a file of its own in-memory filesystem (for
// tests and benchmarks).
func OpenMem(capacityPages int) *Cache {
	c, err := OpenFS(vfs.NewFaultFS(), "mem.idx", capacityPages)
	if err != nil {
		panic(err) // a fresh FaultFS has no fault armed
	}
	return c
}

// PageCount returns the number of allocated pages.
func (c *Cache) PageCount() uint64 { return c.pageCount.Load() }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	return Stats{Hits: c.hits.Load(), Misses: c.misses.Load(), Evictions: c.evictions.Load(), Frames: int(c.nframes.Load())}
}

// DiskBytes reports the size of the backing storage in bytes.
func (c *Cache) DiskBytes() int64 { return int64(c.pageCount.Load()) * PageSize }

// Allocate appends a zeroed page and returns its frame, pinned.
func (c *Cache) Allocate() (PageID, []byte, error) {
	c.pool.mu.Lock()
	defer c.pool.mu.Unlock()
	data, err := c.pool.makeRoom()
	if err != nil {
		return 0, nil, err
	}
	clear(data)
	id := PageID(c.pageCount.Load())
	c.pageCount.Add(1)
	c.hold(&frame{owner: c, id: id, data: data, pins: 1})
	return id, data, nil
}

// Get returns the page's bytes for reading: its frame's, pinned, if it has
// one, else the file's own through the view, with no copy and no pin. The
// caller must Release it either way and must not write it (GetMut writes).
func (c *Cache) Get(id PageID) ([]byte, error) {
	c.hits.Add(1)
	if c.nframes.Load() != 0 {
		c.pool.mu.Lock()
		if fr, ok := c.frames[id]; ok {
			c.pin(fr)
			c.pool.mu.Unlock()
			return fr.data, nil
		}
		c.pool.mu.Unlock()
	}
	return c.view(id)
}

// view reads a page that has no frame, and so is on file, from the view.
func (c *Cache) view(id PageID) ([]byte, error) {
	if n := c.pageCount.Load(); uint64(id) >= n {
		return nil, fmt.Errorf("pagecache: page %d out of range (count %d)", id, n)
	}
	p, err := c.file.View(int64(id)*PageSize, PageSize)
	if err != nil {
		return nil, fmt.Errorf("pagecache: read page %d: %w", id, err)
	}
	return p, nil
}

// GetMut returns the page's frame, pinned, for writing in place: the page
// is copied from the file into a new frame unless it has one. The frame is
// dirty from here until its writeback.
func (c *Cache) GetMut(id PageID) ([]byte, error) {
	c.pool.mu.Lock()
	defer c.pool.mu.Unlock()
	if fr, ok := c.frames[id]; ok {
		c.hits.Add(1)
		c.pin(fr)
		return fr.data, nil
	}
	src, err := c.view(id)
	if err != nil {
		return nil, err
	}
	data, err := c.pool.makeRoom()
	if err != nil {
		return nil, err
	}
	c.misses.Add(1)
	copy(data, src)
	c.hold(&frame{owner: c, id: id, data: data, pins: 1})
	return data, nil
}

func (c *Cache) hold(fr *frame) {
	c.frames[fr.id] = fr
	c.nframes.Add(1)
	c.pool.resident++
}

// drop forgets a frame that is written back.
func (c *Cache) drop(fr *frame) {
	if fr.next != nil {
		fr.unlink()
	}
	delete(c.frames, fr.id)
	c.nframes.Add(-1)
	c.pool.resident--
}

func (c *Cache) pin(fr *frame) {
	fr.pins++
	if fr.next != nil {
		fr.unlink()
	}
}

// unlink takes an unpinned frame out of the LRU ring.
func (fr *frame) unlink() {
	fr.prev.next, fr.next.prev = fr.next, fr.prev
	fr.prev, fr.next = nil, nil
}

// Release unpins a page obtained from Get, GetMut or Allocate. A page served
// from the view holds no pin; a frame's last Release queues it for
// writeback.
func (c *Cache) Release(id PageID) {
	if c.nframes.Load() == 0 {
		return
	}
	c.pool.mu.Lock()
	defer c.pool.mu.Unlock()
	fr, ok := c.frames[id]
	if !ok || fr.pins == 0 {
		return
	}
	if fr.pins--; fr.pins == 0 {
		fr.prev, fr.next = &c.pool.lru, c.pool.lru.next
		fr.prev.next, fr.next.prev = fr, fr
	}
}

// makeRoom returns a page buffer for one more frame: while the pool is full
// it writes back and drops the least recently used unpinned frame, whichever
// cache owns it, and hands on the last such frame's buffer; otherwise a new one.
func (p *Pool) makeRoom() ([]byte, error) {
	var data []byte
	for p.resident >= p.capacity {
		fr := p.lru.prev
		if fr == &p.lru {
			// Everything pinned: allow temporary over-capacity rather
			// than deadlock.
			break
		}
		c := fr.owner
		if _, err := c.file.WriteAt(fr.data, int64(fr.id)*PageSize); err != nil {
			c.failed = err
			return nil, fmt.Errorf("pagecache: writeback page %d: %w", fr.id, err)
		}
		c.drop(fr)
		c.evictions.Add(1)
		data = fr.data
	}
	if data == nil {
		data = make([]byte, PageSize)
	}
	return data, nil
}

// Flush writes back every frame, fsyncs the file and drops the frames
// nobody pins: their pages are read from the file from then on. A pinned
// frame stays, since its writer may not be done with it.
//
// After any writeback or sync failure the cache fails stop: later Flushes
// return the original error. A failed fsync may have dropped dirty pages
// the kernel will never retry, so continuing would persist a tree whose
// pages are silently inconsistent.
func (c *Cache) Flush() error {
	c.pool.mu.Lock()
	defer c.pool.mu.Unlock()
	return c.flushLocked()
}

func (c *Cache) flushLocked() error {
	if c.failed != nil {
		return fmt.Errorf("pagecache: cache failed: %w", c.failed)
	}
	for _, fr := range c.frames {
		if _, err := c.file.WriteAt(fr.data, int64(fr.id)*PageSize); err != nil {
			c.failed = err
			return fmt.Errorf("pagecache: flush page %d: %w", fr.id, err)
		}
		if fr.pins == 0 {
			c.drop(fr)
		}
	}
	//aionlint:ignore lockio an explicit durability point (tree Flush, Close), never the page-access path; the one-mutex cache keeps write-back and fsync one step so c.failed covers both
	if err := c.file.Sync(); err != nil {
		c.failed = err
		return fmt.Errorf("pagecache: sync: %w", err)
	}
	return nil
}

// Close flushes, returns the cache's frames to the pool's budget and closes
// the file, which unmaps its views.
func (c *Cache) Close() error {
	c.pool.mu.Lock()
	defer c.pool.mu.Unlock()
	err := c.flushLocked()
	for _, fr := range c.frames {
		c.drop(fr)
	}
	return errors.Join(err, c.file.Close())
}

// Pinned returns how many of the cache's frames are pinned: zero whenever no
// tree operation or cursor is in flight.
func (c *Cache) Pinned() int {
	c.pool.mu.Lock()
	defer c.pool.mu.Unlock()
	n := 0
	for _, fr := range c.frames {
		if fr.pins > 0 {
			n++
		}
	}
	return n
}
