// Package graphstore implements the GraphStore (Sec 5.1): an in-memory
// Least-Recently-Used cache of graph snapshots keyed by timestamp. Snapshots
// are handed out as Copy-on-Write clones (Sec 5.2) so callers can replay
// updates forward without disturbing cached state.
//
// The paper's GraphStore also "maintains the latest graph version in memory"
// because Neo4j's own copy is on-disk records. Here the host database's
// committed graph is that one in-memory copy, and the TimeStore borrows it
// where it needs it; see DESIGN.md, "Resident graphs: who owns what".
package graphstore

import (
	"container/list"
	"sort"
	"sync"

	"aion/internal/memgraph"
	"aion/internal/model"
)

type entry struct {
	ts    model.Timestamp
	g     *memgraph.Graph
	bytes int64
	elem  *list.Element
}

// Stats reports cache effectiveness counters.
type Stats struct {
	Hits, Misses, Evictions uint64
	Bytes                   int64
	Snapshots               int
}

// Store is the LRU snapshot cache. All methods are safe for concurrent use.
type Store struct {
	mu       sync.Mutex
	capacity int64 // byte budget for cached snapshots
	bytes    int64
	entries  map[model.Timestamp]*entry
	order    []model.Timestamp // sorted, for floor lookups
	lru      *list.List        // front = most recently used
	stats    Stats
}

// New creates a GraphStore with the given snapshot byte budget.
func New(capacityBytes int64) *Store {
	return &Store{
		capacity: capacityBytes,
		entries:  make(map[model.Timestamp]*entry),
		lru:      list.New(),
	}
}

// Put caches a CoW clone of g under g's timestamp, evicting least recently
// used snapshots past the byte budget; the caller may keep mutating g. A graph
// cached at that timestamp already stays, moved to the front: both hold the
// complete state there, and the cached one is what the graphs cached at the
// rest of its chain run share records with.
func (s *Store) Put(g *memgraph.Graph) {
	// Cloned and sized before the lock: s.mu is the mutex every cache lookup
	// takes, and the walk is as long as the graph is large.
	g = g.Clone()
	ts, bytes := g.Timestamp(), sizeOf(g)
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.entries[ts]; ok {
		s.lru.MoveToFront(old.elem)
		return
	}
	e := &entry{ts: ts, g: g, bytes: bytes}
	e.elem = s.lru.PushFront(e)
	s.entries[ts] = e
	s.bytes += e.bytes
	s.insertOrder(ts)
	s.evict()
}

// sizeOf is the accounting of a graph about to be cached: a walk of every
// entity. A variable only so a test can observe where it runs.
var sizeOf = (*memgraph.Graph).ApproxBytes

func (s *Store) insertOrder(ts model.Timestamp) {
	i := sort.Search(len(s.order), func(i int) bool { return s.order[i] >= ts })
	s.order = append(s.order, 0)
	copy(s.order[i+1:], s.order[i:])
	s.order[i] = ts
}

func (s *Store) removeOrder(ts model.Timestamp) {
	i := sort.Search(len(s.order), func(i int) bool { return s.order[i] >= ts })
	if i < len(s.order) && s.order[i] == ts {
		s.order = append(s.order[:i], s.order[i+1:]...)
	}
}

func (s *Store) evict() {
	for s.bytes > s.capacity && s.lru.Len() > 1 {
		back := s.lru.Back()
		e := back.Value.(*entry)
		s.lru.Remove(back)
		delete(s.entries, e.ts)
		s.removeOrder(e.ts)
		s.bytes -= e.bytes
		s.stats.Evictions++
	}
}

// Holds reports whether a snapshot is cached exactly at ts, leaving the
// counters and the LRU order alone.
func (s *Store) Holds(ts model.Timestamp) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.entries[ts] != nil
}

// Rebase points the entry cached at g's timestamp, if there still is one, at a
// CoW clone of g — the same state, held in other records; nothing else about
// the entry changes.
func (s *Store) Rebase(g *memgraph.Graph) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.entries[g.Timestamp()]; e != nil {
		e.g = g.Clone()
	}
}

// Floor returns a CoW clone of the cached snapshot with the largest
// timestamp <= ts, so the caller can replay forward changes to reach the
// exact state (Sec 4.3).
func (s *Store) Floor(ts model.Timestamp) (*memgraph.Graph, model.Timestamp, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := sort.Search(len(s.order), func(i int) bool { return s.order[i] > ts })
	if i == 0 {
		s.stats.Misses++
		return nil, 0, false
	}
	snapTS := s.order[i-1]
	e := s.entries[snapTS]
	s.stats.Hits++
	s.lru.MoveToFront(e.elem)
	return e.g.Clone(), snapTS, true
}

// Stats returns a snapshot of the cache counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Bytes = s.bytes
	st.Snapshots = len(s.entries)
	return st
}
