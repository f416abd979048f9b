package graphstore

import (
	"sync"
	"testing"

	"aion/internal/memgraph"
	"aion/internal/model"
	"aion/internal/testkit/memshare"
)

func snapshotAt(t *testing.T, ts model.Timestamp, nodes int) *memgraph.Graph {
	t.Helper()
	g := memgraph.New()
	for i := 0; i < nodes; i++ {
		if err := g.Apply(model.AddNode(1, model.NodeID(i), nil, nil)); err != nil {
			t.Fatal(err)
		}
	}
	g.SetTimestamp(ts)
	return g
}

// sharedWith counts the nodes whose record g holds as ref does.
func sharedWith(g, ref *memgraph.Graph) int {
	nodes, _ := memshare.Records(g, ref)
	return nodes
}

func TestPutGetExact(t *testing.T) {
	s := New(1 << 20)
	s.Put(snapshotAt(t, 10, 5))
	g, at, ok := s.Floor(10)
	if !ok || at != 10 || g.NodeCount() != 5 {
		t.Fatalf("Floor(10) = %v %d %v", g, at, ok)
	}
	if s.Holds(11) {
		t.Error("missing ts must miss")
	}
}

func TestFloorSelectsClosestBelow(t *testing.T) {
	s := New(1 << 20)
	s.Put(snapshotAt(t, 10, 1))
	s.Put(snapshotAt(t, 20, 2))
	s.Put(snapshotAt(t, 30, 3))
	g, snapTS, ok := s.Floor(25)
	if !ok || snapTS != 20 || g.NodeCount() != 2 {
		t.Fatalf("Floor(25) = ts %d nodes %d ok %v", snapTS, g.NodeCount(), ok)
	}
	if _, _, ok := s.Floor(5); ok {
		t.Error("floor below all snapshots must miss")
	}
	_, snapTS, _ = s.Floor(30)
	if snapTS != 30 {
		t.Error("exact floor")
	}
	_, snapTS, _ = s.Floor(1 << 40)
	if snapTS != 30 {
		t.Error("floor above all returns max")
	}
}

func TestReturnedSnapshotIsIsolated(t *testing.T) {
	s := New(1 << 20)
	s.Put(snapshotAt(t, 10, 2))
	g1, _, _ := s.Floor(10)
	if err := g1.Apply(model.AddNode(11, 99, nil, nil)); err != nil {
		t.Fatal(err)
	}
	g2, _, _ := s.Floor(10)
	if g2.NodeCount() != 2 {
		t.Error("cache must not observe caller mutations (CoW)")
	}
}

func TestEvictionByBytes(t *testing.T) {
	one := snapshotAt(t, 1, 100)
	budget := one.ApproxBytes()*2 + 10
	s := New(budget)
	for ts := model.Timestamp(1); ts <= 10; ts++ {
		s.Put(snapshotAt(t, ts, 100))
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatal("expected evictions")
	}
	if st.Bytes > budget {
		t.Errorf("bytes %d over budget %d", st.Bytes, budget)
	}
	// The most recently inserted snapshot must still be present.
	if !s.Holds(10) {
		t.Error("latest snapshot evicted")
	}
}

func TestLRUOrderingKeepsHotEntries(t *testing.T) {
	one := snapshotAt(t, 1, 50)
	s := New(one.ApproxBytes()*3 + 10)
	s.Put(snapshotAt(t, 1, 50))
	s.Put(snapshotAt(t, 2, 50))
	s.Put(snapshotAt(t, 3, 50))
	// Touch ts=1 so it becomes most recently used.
	s.Floor(1)
	s.Put(snapshotAt(t, 4, 50)) // evicts ts=2 (LRU), not ts=1
	if !s.Holds(1) {
		t.Error("hot entry evicted")
	}
	if s.Holds(2) {
		t.Error("cold entry retained")
	}
}

// TestAdmitKeepsTheCachedGraph: a graph admitted by Put at a timestamp that
// is cached already leaves the cached one in place, and its bytes counted
// once; one with no rival is cached.
func TestAdmitKeepsTheCachedGraph(t *testing.T) {
	s := New(1 << 20)
	first := snapshotAt(t, 10, 3)
	s.Put(first)
	s.Put(snapshotAt(t, 10, 7))
	s.Put(snapshotAt(t, 20, 5))
	if got, at, ok := s.Floor(10); !ok || at != 10 || got.NodeCount() != 3 || sharedWith(got, first) != 3 {
		t.Error("a second graph put at 10 displaced the one cached there")
	}
	if got, at, ok := s.Floor(20); !ok || at != 20 || got.NodeCount() != 5 {
		t.Error("a graph put with no rival is not cached")
	}
	if st := s.Stats(); st.Snapshots != 2 || st.Bytes != first.ApproxBytes()+snapshotAt(t, 20, 5).ApproxBytes() {
		t.Errorf("stats %+v", st)
	}
}

func TestConcurrentReadersAndWriter(t *testing.T) {
	s := New(1 << 20)
	done := make(chan struct{})
	go func() {
		defer close(done)
		g := memgraph.New()
		for i := 0; i < 500; i++ {
			if err := g.Apply(model.AddNode(model.Timestamp(i+1), model.NodeID(i), nil, nil)); err != nil {
				t.Error(err)
				return
			}
			if i%50 == 0 {
				s.Put(g)
			}
		}
	}()
	for i := 0; i < 200; i++ {
		if g, at, ok := s.Floor(model.Timestamp(i * 2)); ok && g.NodeCount() != int(at) {
			t.Errorf("the graph cached at %d holds %d nodes", at, g.NodeCount())
		}
		s.Holds(model.Timestamp(i))
		s.Stats()
	}
	<-done
	if g, at, ok := s.Floor(451); !ok || at != 451 || g.NodeCount() != 451 {
		t.Errorf("the last graph put is not cached whole")
	}
}

// TestPutIsolation: the cache holds a clone of what Put was given and hands
// out clones, so mutating either leaves the cached state alone.
func TestPutIsolation(t *testing.T) {
	s := New(1 << 20)
	g := memgraph.New()
	if err := g.Apply(model.AddNode(5, 0, []string{"A"}, nil)); err != nil {
		t.Fatal(err)
	}
	s.Put(g)
	if err := g.Apply(model.AddNode(5, 2, nil, nil)); err != nil {
		t.Fatal(err)
	}
	c1, at, ok := s.Floor(5)
	if !ok || at != 5 || c1.NodeCount() != 1 {
		t.Fatalf("Floor(5) = %v at %d: mutating the graph put reached the cache", ok, at)
	}
	if err := c1.Apply(model.AddNode(6, 1, nil, nil)); err != nil {
		t.Fatal(err)
	}
	c2, _, _ := s.Floor(5)
	if c2.NodeCount() != 1 {
		t.Errorf("mutating a handed-out clone leaked into the cache: %d nodes", c2.NodeCount())
	}
}

// TestConcurrentPutAndFloor hammers the cache from writers and readers at
// once (run with -race): the access pattern of concurrent GetGraph reads,
// each caching what it loaded.
func TestConcurrentPutAndFloor(t *testing.T) {
	s := New(1 << 20)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				g := memgraph.New()
				ts := model.Timestamp(i*2 + w + 1)
				if err := g.Apply(model.AddNode(ts, model.NodeID(i), nil, nil)); err != nil {
					t.Error(err)
					return
				}
				s.Put(g)
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				if g, _, ok := s.Floor(model.Timestamp(i + 1)); ok {
					// Mutating the clone must be safe and private.
					if err := g.Apply(model.AddNode(model.TSInfinity-1, 10_000, nil, nil)); err != nil {
						t.Error(err)
						return
					}
				}
				s.Holds(model.Timestamp(i + 1))
			}
		}()
	}
	wg.Wait()
}

// TestRebaseSwapsTheGraphOnly: the entry keeps its place in the eviction
// order and every counter stands still, a timestamp that is not cached stays
// uncached, and the caller's graph is not the cached one.
func TestRebaseSwapsTheGraphOnly(t *testing.T) {
	g := snapshotAt(t, 10, 4)
	s := New(3 * g.ApproxBytes())
	s.Put(snapshotAt(t, 10, 4))
	s.Put(snapshotAt(t, 20, 4))
	before := s.Stats()
	s.Rebase(g)
	s.Rebase(snapshotAt(t, 15, 4))
	if !s.Holds(10) || s.Holds(15) {
		t.Fatalf("Holds(10) = %v, Holds(15) = %v, want true, false", s.Holds(10), s.Holds(15))
	}
	if after := s.Stats(); after != before {
		t.Errorf("counters went from %+v to %+v", before, after)
	}
	// 10 is still the least recently used: the fourth snapshot evicts it.
	s.Put(snapshotAt(t, 30, 4))
	s.Put(snapshotAt(t, 40, 4))
	if s.Holds(10) || !s.Holds(20) {
		t.Errorf("after two more snapshots Holds(10) = %v, Holds(20) = %v, want false, true", s.Holds(10), s.Holds(20))
	}

	s.Put(snapshotAt(t, 10, 4))
	s.Rebase(g)
	if got, _, _ := s.Floor(10); sharedWith(got, g) != g.NodeCount() {
		t.Error("Floor(10) does not hold the rebased graph's entities")
	}
	if err := g.Apply(model.AddNode(10, 99, nil, nil)); err != nil {
		t.Fatal(err)
	}
	if got, _, _ := s.Floor(10); got.NodeCount() != 4 {
		t.Errorf("a write to the caller's graph reached the cache: %d nodes", got.NodeCount())
	}
}

// Admission sizes a graph by walking every entity; s.mu is the mutex every
// lookup takes — and one query caches while others read. The walk therefore
// runs before the lock: probed from inside it, the mutex is free and a lookup
// goes through — whatever the graph's size, a reader waits for the map insert
// only.
func TestAdmissionSizesOutsideTheLock(t *testing.T) {
	s := New(1 << 30)
	walk := sizeOf
	defer func() { sizeOf = walk }()
	walks := 0
	sizeOf = func(g *memgraph.Graph) int64 {
		walks++
		if !s.mu.TryLock() {
			t.Error("the store's mutex is held while a graph is sized for admission")
			return walk(g)
		}
		s.mu.Unlock()
		s.Holds(10)
		return walk(g)
	}
	a, b := snapshotAt(t, 10, 15000), snapshotAt(t, 20, 15000)
	s.Put(a)
	s.Put(b)
	if walks != 2 {
		t.Fatalf("%d sizing walks, want 2", walks)
	}
	if st := s.Stats(); st.Snapshots != 2 || st.Bytes != a.ApproxBytes()+b.ApproxBytes() {
		t.Fatalf("stats %+v after two admissions of %d and %d bytes", st, a.ApproxBytes(), b.ApproxBytes())
	}
}
