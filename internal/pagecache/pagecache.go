// Package pagecache implements a fixed-size-page LRU buffer pool over a
// backing file, the substrate beneath Aion's B+Trees. It stands in for the
// Neo4j page cache the paper builds on: B+Tree pages are read through the
// cache, dirtied in place, and written back on eviction or flush, which
// gives the trees out-of-core behaviour with bounded memory.
package pagecache

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"aion/internal/vfs"
)

// PageSize is the fixed page size in bytes.
const PageSize = 4096

// PageID identifies a page by its index in the backing file.
type PageID uint64

// Backend is the random-access storage under the cache. *os.File satisfies
// it; memBackend provides an in-memory variant for tests and benchmarks.
type Backend interface {
	io.ReaderAt
	io.WriterAt
	Close() error
}

// memBackend is a growable in-memory Backend.
type memBackend struct {
	mu   sync.Mutex
	data []byte
}

func (m *memBackend) ReadAt(p []byte, off int64) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if off >= int64(len(m.data)) {
		return 0, io.EOF
	}
	n := copy(p, m.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (m *memBackend) WriteAt(p []byte, off int64) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if need := off + int64(len(p)); need > int64(len(m.data)) {
		grown := make([]byte, need)
		copy(grown, m.data)
		m.data = grown
	}
	return copy(m.data[off:], p), nil
}

func (m *memBackend) Close() error { return nil }

type frame struct {
	id    PageID
	data  []byte
	dirty bool
	pins  int
	// prev and next link the unpinned frames into the LRU ring; both nil
	// while pinned. The links live in the frame so that pinning and
	// unpinning a cached page relinks and allocates nothing.
	prev, next *frame
}

// Stats reports cache effectiveness counters.
type Stats struct {
	Hits, Misses, Evictions uint64
}

// Cache is an LRU page cache. All methods are safe for concurrent use, but
// the byte slices handed out by Get are only stable while the page is
// pinned: callers must Release pages when done.
type Cache struct {
	mu        sync.Mutex
	backend   Backend
	frames    map[PageID]*frame
	lru       frame // the LRU ring's sentinel: next = most, prev = least recently used
	capacity  int
	pageCount uint64
	stats     Stats
	isFile    bool
	failed    error // sticky: first writeback/sync error; later writes fail-stop
}

// Open creates or opens a file-backed cache holding at most capacityPages
// pages in memory.
func Open(path string, capacityPages int) (*Cache, error) {
	return OpenFS(vfs.OS, path, capacityPages)
}

// OpenFS is Open on an explicit filesystem.
func OpenFS(fs vfs.FS, path string, capacityPages int) (*Cache, error) {
	f, err := fs.OpenFile(path)
	if err != nil {
		return nil, fmt.Errorf("pagecache: open: %w", err)
	}
	size, err := f.Size()
	if err != nil {
		return nil, errors.Join(fmt.Errorf("pagecache: stat: %w", err), f.Close())
	}
	c := newCache(f, capacityPages)
	c.isFile = true
	c.pageCount = uint64(size) / PageSize
	return c, nil
}

// OpenMem creates a memory-backed cache (for tests and in-memory stores).
func OpenMem(capacityPages int) *Cache {
	return newCache(&memBackend{}, capacityPages)
}

func newCache(b Backend, capacityPages int) *Cache {
	if capacityPages < 8 {
		capacityPages = 8
	}
	c := &Cache{
		backend:  b,
		frames:   make(map[PageID]*frame, capacityPages),
		capacity: capacityPages,
	}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	return c
}

// PageCount returns the number of allocated pages.
func (c *Cache) PageCount() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pageCount
}

// Stats returns a snapshot of the hit/miss/eviction counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// DiskBytes reports the size of the backing storage in bytes.
func (c *Cache) DiskBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return int64(c.pageCount) * PageSize
}

// Allocate appends a zeroed page and returns it pinned.
func (c *Cache) Allocate() (PageID, []byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := PageID(c.pageCount)
	c.pageCount++
	if err := c.evictLocked(); err != nil {
		return 0, nil, err
	}
	fr := &frame{id: id, data: make([]byte, PageSize), dirty: true, pins: 1}
	c.frames[id] = fr
	return id, fr.data, nil
}

// Get returns the page's data, pinned. The caller must Release it. The
// slice may be written; call MarkDirty before Release to persist changes.
func (c *Cache) Get(id PageID) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if fr, ok := c.frames[id]; ok {
		c.stats.Hits++
		c.pin(fr)
		return fr.data, nil
	}
	c.stats.Misses++
	if id >= PageID(c.pageCount) {
		return nil, fmt.Errorf("pagecache: page %d out of range (count %d)", id, c.pageCount)
	}
	if err := c.evictLocked(); err != nil {
		return nil, err
	}
	data := make([]byte, PageSize)
	if _, err := c.backend.ReadAt(data, int64(id)*PageSize); err != nil && err != io.EOF {
		return nil, fmt.Errorf("pagecache: read page %d: %w", id, err)
	}
	fr := &frame{id: id, data: data, pins: 1}
	c.frames[id] = fr
	return data, nil
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

// MarkDirty records that the page's contents changed and must be written
// back. The page must currently be pinned.
func (c *Cache) MarkDirty(id PageID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if fr, ok := c.frames[id]; ok {
		fr.dirty = true
	}
}

// Release unpins a page obtained from Get or Allocate.
func (c *Cache) Release(id PageID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fr, ok := c.frames[id]
	if !ok || fr.pins == 0 {
		return
	}
	fr.pins--
	if fr.pins == 0 {
		fr.prev, fr.next = &c.lru, c.lru.next
		fr.prev.next, fr.next.prev = fr, fr
	}
}

// evictLocked makes room for one more frame by writing back and dropping
// the least recently used unpinned frame, if the cache is full.
func (c *Cache) evictLocked() error {
	for len(c.frames) >= c.capacity {
		fr := c.lru.prev
		if fr == &c.lru {
			// Everything pinned: allow temporary over-capacity rather
			// than deadlock.
			return nil
		}
		if fr.dirty {
			if _, err := c.backend.WriteAt(fr.data, int64(fr.id)*PageSize); err != nil {
				c.failed = err
				return fmt.Errorf("pagecache: writeback page %d: %w", fr.id, err)
			}
		}
		fr.unlink()
		delete(c.frames, fr.id)
		c.stats.Evictions++
	}
	return nil
}

// Flush writes back all dirty frames (and fsyncs file backends).
//
// After any writeback or sync failure the cache fails stop: later Flushes
// return the original error. A failed fsync may have dropped dirty pages
// the kernel will never retry, so continuing would persist a tree whose
// pages are silently inconsistent.
func (c *Cache) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.flushLocked()
}

func (c *Cache) flushLocked() error {
	if c.failed != nil {
		return fmt.Errorf("pagecache: cache failed: %w", c.failed)
	}
	for _, fr := range c.frames {
		if !fr.dirty {
			continue
		}
		if _, err := c.backend.WriteAt(fr.data, int64(fr.id)*PageSize); err != nil {
			c.failed = err
			return fmt.Errorf("pagecache: flush page %d: %w", fr.id, err)
		}
		fr.dirty = false
	}
	if f, ok := c.backend.(interface{ Sync() error }); ok && c.isFile {
		//aionlint:ignore lockio an explicit durability point (tree Flush, Close), never the page-access path; the one-mutex cache keeps write-back and fsync one step so c.failed covers both
		if err := f.Sync(); err != nil {
			c.failed = err
			return fmt.Errorf("pagecache: sync: %w", err)
		}
	}
	return nil
}

// Close flushes and closes the backing storage.
func (c *Cache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.flushLocked(); err != nil {
		return errors.Join(err, c.backend.Close())
	}
	return c.backend.Close()
}
