// Package pagecache is the page cache beneath Aion's B+Trees, standing in
// for the Neo4j page cache the paper builds on, which lives off the JVM heap.
// Every page has one copy, the kernel's: Get and GetMut both return the
// file's own bytes through its view (a shared mapping on an OS file), and a
// write to a page is a write to the file, durable after Flush. The cache
// holds no page on the heap, so it has no budget, no eviction and no pins.
package pagecache

import (
	"cmp"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"aion/internal/vfs"
)

// PageSize is the fixed page size in bytes.
const PageSize = 4096

// zeroPage is what Allocate writes; nothing writes to it.
var zeroPage [PageSize]byte

// PageID identifies a page by its index in the backing file.
type PageID uint64

// Stats reports cache counters. Every Get and GetMut is a hit; Misses and
// Evictions stay 0, since no page is ever read into or dropped from the heap.
type Stats struct {
	Hits, Misses, Evictions uint64
}

// Cache is the page cache of one file. All methods are safe for concurrent
// use, provided a page's readers (Get) exclude its writers (GetMut,
// Allocate), as a tree's lock makes them. A slice from Get, GetMut or
// Allocate is the page itself: it stays valid until Close, however the file
// grows.
type Cache struct {
	file vfs.File

	mu     sync.Mutex // serialises Allocate's extension of the file; guards failed
	failed error      // sticky: the first extension or sync error; later Flushes fail-stop

	pageCount atomic.Uint64
	hits      atomic.Uint64
}

// Open creates or opens a file-backed cache. capacityPages is accepted and
// unused: the cache holds no page of its own.
func Open(path string, capacityPages int) (*Cache, error) {
	return OpenFS(vfs.OS, path)
}

// OpenFS is Open on an explicit filesystem.
func OpenFS(fs vfs.FS, path string) (*Cache, error) {
	f, err := fs.OpenFile(path)
	if err != nil {
		return nil, fmt.Errorf("pagecache: open: %w", err)
	}
	size, err := f.Size()
	if err != nil {
		return nil, errors.Join(fmt.Errorf("pagecache: stat: %w", err), f.Close())
	}
	c := &Cache{file: f}
	c.pageCount.Store(uint64(size) / PageSize)
	return c, nil
}

// PageCount returns the number of allocated pages.
func (c *Cache) PageCount() uint64 { return c.pageCount.Load() }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return Stats{Hits: c.hits.Load()} }

// DiskBytes reports the size of the backing storage in bytes.
func (c *Cache) DiskBytes() int64 { return int64(c.pageCount.Load()) * PageSize }

// Allocate appends a zeroed page and returns it. The file is extended with a
// written page of zeros, which reserves its blocks, so that a later write
// through the view cannot fault on a full disk. A failed extension leaves
// PageCount as it was and fails every later Flush.
func (c *Cache) Allocate() (PageID, []byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := PageID(c.pageCount.Load())
	if _, err := c.file.WriteAt(zeroPage[:], int64(id)*PageSize); err != nil {
		c.failed = cmp.Or(c.failed, err)
		return 0, nil, fmt.Errorf("pagecache: extend to page %d: %w", id, err)
	}
	c.pageCount.Add(1)
	data, err := c.view(id)
	return id, data, err
}

// Get returns the page's bytes for reading, through the view: no copy, no
// lock, no allocation. The caller must not write them (GetMut writes).
func (c *Cache) Get(id PageID) ([]byte, error) {
	c.hits.Add(1)
	return c.view(id)
}

// GetMut returns the page's bytes for writing in place: the same view Get
// returns, so a write to it is a write to the file, seen at once by every
// reader and durable after Flush.
func (c *Cache) GetMut(id PageID) ([]byte, error) { return c.Get(id) }

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

// Flush makes every page written so far durable: it is the file's Sync.
//
// After any extension or sync failure the cache fails stop: later Flushes
// return the original error. A failed fsync may have dropped dirty pages
// the kernel will never retry, so continuing would persist a tree whose
// pages are silently inconsistent.
func (c *Cache) Flush() error {
	c.mu.Lock()
	failed := c.failed
	c.mu.Unlock()
	if failed != nil {
		return fmt.Errorf("pagecache: cache failed: %w", failed)
	}
	if err := c.file.Sync(); err != nil {
		c.mu.Lock()
		c.failed = cmp.Or(c.failed, err)
		c.mu.Unlock()
		return fmt.Errorf("pagecache: sync: %w", err)
	}
	return nil
}

// Close flushes and closes the file, which unmaps its views.
func (c *Cache) Close() error {
	return errors.Join(c.Flush(), c.file.Close())
}
