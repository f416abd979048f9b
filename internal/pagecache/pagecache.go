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
	owner *Cache
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

// Pool is a page budget: one LRU ring, one capacity and one mutex over the
// frames of every cache opened on it, so that several files share their
// memory by recency rather than by a fixed split.
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

// Cache is an LRU page cache over one backing file. All methods are safe for
// concurrent use, but the byte slices handed out by Get are only stable while
// the page is pinned: callers must Release pages when done.
type Cache struct {
	pool      *Pool // its mutex guards every field below
	backend   Backend
	frames    map[PageID]*frame
	pageCount uint64
	stats     Stats
	isFile    bool
	failed    error // sticky: first writeback/sync error; later writes fail-stop
}

// Open creates or opens a file-backed cache holding at most capacityPages
// pages in memory, a budget of its own.
func Open(path string, capacityPages int) (*Cache, error) {
	return OpenFS(vfs.OS, path, capacityPages)
}

// OpenFS is Open on an explicit filesystem.
func OpenFS(fs vfs.FS, path string, capacityPages int) (*Cache, error) {
	return NewPool(capacityPages).OpenFS(fs, path)
}

// OpenFS opens a file-backed cache whose pages count against the pool.
func (p *Pool) OpenFS(fs vfs.FS, path string) (*Cache, error) {
	f, err := fs.OpenFile(path)
	if err != nil {
		return nil, fmt.Errorf("pagecache: open: %w", err)
	}
	size, err := f.Size()
	if err != nil {
		return nil, errors.Join(fmt.Errorf("pagecache: stat: %w", err), f.Close())
	}
	return &Cache{pool: p, backend: f, frames: make(map[PageID]*frame), isFile: true, pageCount: uint64(size) / PageSize}, nil
}

// OpenMem creates a memory-backed cache (for tests and in-memory stores).
func OpenMem(capacityPages int) *Cache {
	return &Cache{pool: NewPool(capacityPages), backend: &memBackend{}, frames: make(map[PageID]*frame)}
}

// PageCount returns the number of allocated pages.
func (c *Cache) PageCount() uint64 {
	c.pool.mu.Lock()
	defer c.pool.mu.Unlock()
	return c.pageCount
}

// Stats returns a snapshot of the hit/miss/eviction counters.
func (c *Cache) Stats() Stats {
	c.pool.mu.Lock()
	defer c.pool.mu.Unlock()
	return c.stats
}

// DiskBytes reports the size of the backing storage in bytes.
func (c *Cache) DiskBytes() int64 {
	c.pool.mu.Lock()
	defer c.pool.mu.Unlock()
	return int64(c.pageCount) * PageSize
}

// Allocate appends a zeroed page and returns it pinned.
func (c *Cache) Allocate() (PageID, []byte, error) {
	c.pool.mu.Lock()
	defer c.pool.mu.Unlock()
	data, err := c.pool.makeRoom()
	if err != nil {
		return 0, nil, err
	}
	clear(data)
	id := PageID(c.pageCount)
	c.pageCount++
	c.hold(&frame{owner: c, id: id, data: data, dirty: true, pins: 1})
	return id, data, nil
}

// Get returns the page's data, pinned. The caller must Release it. The
// slice may be written; call MarkDirty before Release to persist changes.
func (c *Cache) Get(id PageID) ([]byte, error) {
	c.pool.mu.Lock()
	defer c.pool.mu.Unlock()
	if fr, ok := c.frames[id]; ok {
		c.stats.Hits++
		c.pin(fr)
		return fr.data, nil
	}
	c.stats.Misses++
	if id >= PageID(c.pageCount) {
		return nil, fmt.Errorf("pagecache: page %d out of range (count %d)", id, c.pageCount)
	}
	data, err := c.pool.makeRoom()
	if err != nil {
		return nil, err
	}
	n, err := c.backend.ReadAt(data, int64(id)*PageSize)
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("pagecache: read page %d: %w", id, err)
	}
	clear(data[n:]) // a page past the file's end reads as zeroes, whatever the buffer held
	c.hold(&frame{owner: c, id: id, data: data, pins: 1})
	return data, nil
}

func (c *Cache) hold(fr *frame) {
	c.frames[fr.id] = fr
	c.pool.resident++
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
	c.pool.mu.Lock()
	defer c.pool.mu.Unlock()
	if fr, ok := c.frames[id]; ok {
		fr.dirty = true
	}
}

// Release unpins a page obtained from Get or Allocate.
func (c *Cache) Release(id PageID) {
	c.pool.mu.Lock()
	defer c.pool.mu.Unlock()
	fr, ok := c.frames[id]
	if !ok || fr.pins == 0 {
		return
	}
	fr.pins--
	if fr.pins == 0 {
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
		if fr.dirty {
			if _, err := c.backend.WriteAt(fr.data, int64(fr.id)*PageSize); err != nil {
				c.failed = err
				return nil, fmt.Errorf("pagecache: writeback page %d: %w", fr.id, err)
			}
		}
		fr.unlink()
		delete(c.frames, fr.id)
		c.stats.Evictions++
		p.resident--
		data = fr.data
	}
	if data == nil {
		data = make([]byte, PageSize)
	}
	return data, nil
}

// Flush writes back all dirty frames (and fsyncs file backends).
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

// Close flushes, returns the cache's frames to the pool's budget and closes
// the backing storage.
func (c *Cache) Close() error {
	c.pool.mu.Lock()
	defer c.pool.mu.Unlock()
	err := c.flushLocked()
	for _, fr := range c.frames {
		if fr.next != nil {
			fr.unlink()
		}
	}
	c.pool.resident -= len(c.frames)
	clear(c.frames)
	return errors.Join(err, c.backend.Close())
}

// Pinned returns how many of the cache's pages are pinned: zero whenever no
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
