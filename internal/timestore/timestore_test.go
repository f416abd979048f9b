package timestore

import (
	"context"
	"errors"
	"os"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"aion/internal/algo"
	"aion/internal/enc"
	"aion/internal/memgraph"
	"aion/internal/model"
	"aion/internal/strstore"
	"aion/internal/testkit/vfstest"
	"aion/internal/vfs"
)

func openStore(t *testing.T, opts Options) *Store {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	s, err := Open(enc.NewCodec(strstore.NewMem()), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// chainUpdates builds a line graph: nodes 0..n-1 at ts 1..n, then rels
// i -> i+1 at ts n+1..2n-1.
func chainUpdates(n int) []model.Update {
	var us []model.Update
	ts := model.Timestamp(1)
	for i := 0; i < n; i++ {
		us = append(us, model.AddNode(ts, model.NodeID(i), []string{"N"}, nil))
		ts++
	}
	for i := 0; i < n-1; i++ {
		us = append(us, model.AddRel(ts, model.RelID(i), model.NodeID(i), model.NodeID(i+1), "R", nil))
		ts++
	}
	return us
}

func TestAppendAndGetDiff(t *testing.T) {
	ctx := context.Background()
	s := openStore(t, Options{SnapshotEveryOps: 1 << 30})
	us := chainUpdates(10)
	if err := s.AppendBatch(us); err != nil {
		t.Fatal(err)
	}
	diff, err := s.GetDiffContext(ctx, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(diff) != 4 {
		t.Fatalf("diff [3,7) has %d updates, want 4", len(diff))
	}
	for _, u := range diff {
		if u.TS < 3 || u.TS >= 7 {
			t.Errorf("diff leaked ts %d", u.TS)
		}
	}
	all, _ := s.GetDiffContext(ctx, 0, model.TSInfinity)
	if len(all) != len(us) {
		t.Errorf("full diff = %d, want %d", len(all), len(us))
	}
	empty, _ := s.GetDiffContext(ctx, 7, 3)
	if len(empty) != 0 {
		t.Error("inverted range must be empty")
	}
}

func TestMonotonicityEnforced(t *testing.T) {
	s := openStore(t, Options{})
	if err := s.Append(model.AddNode(10, 0, nil, nil)); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(model.AddNode(5, 1, nil, nil)); err == nil {
		t.Error("decreasing ts must be rejected")
	}
	// Equal timestamps are fine (same transaction).
	if err := s.Append(model.AddNode(10, 1, nil, nil)); err != nil {
		t.Errorf("equal ts rejected: %v", err)
	}
}

func TestGetGraphAtEveryTimestamp(t *testing.T) {
	s := openStore(t, Options{SnapshotEveryOps: 7})
	us := chainUpdates(10) // 19 updates at ts 1..19
	if err := s.AppendBatch(us); err != nil {
		t.Fatal(err)
	}
	for ts := model.Timestamp(0); ts <= 19; ts++ {
		g, err := s.GetGraphContext(context.Background(), ts)
		if err != nil {
			t.Fatalf("GetGraph(%d): %v", ts, err)
		}
		wantNodes := int(ts)
		if wantNodes > 10 {
			wantNodes = 10
		}
		wantRels := int(ts) - 10
		if wantRels < 0 {
			wantRels = 0
		}
		if g.NodeCount() != wantNodes || g.RelCount() != wantRels {
			t.Errorf("ts %d: %d/%d nodes/rels, want %d/%d",
				ts, g.NodeCount(), g.RelCount(), wantNodes, wantRels)
		}
		if g.Timestamp() != ts {
			t.Errorf("graph ts = %d, want %d", g.Timestamp(), ts)
		}
	}
}

func TestGetGraphWithDeletions(t *testing.T) {
	ctx := context.Background()
	s := openStore(t, Options{SnapshotEveryOps: 3})
	us := []model.Update{
		model.AddNode(1, 0, nil, nil),
		model.AddNode(2, 1, nil, nil),
		model.AddRel(3, 0, 0, 1, "R", nil),
		model.DeleteRel(4, 0, 0, 1),
		model.DeleteNode(5, 1),
		model.AddNode(6, 1, []string{"Reborn"}, nil),
	}
	if err := s.AppendBatch(us); err != nil {
		t.Fatal(err)
	}
	g4, _ := s.GetGraphContext(ctx, 4)
	if g4.RelCount() != 0 || g4.NodeCount() != 2 {
		t.Errorf("ts 4: %d/%d", g4.NodeCount(), g4.RelCount())
	}
	g5, _ := s.GetGraphContext(ctx, 5)
	if g5.NodeCount() != 1 {
		t.Errorf("ts 5: %d nodes", g5.NodeCount())
	}
	g6, _ := s.GetGraphContext(ctx, 6)
	if g6.NodeCount() != 2 || !g6.Node(1).HasLabel("Reborn") {
		t.Error("re-inserted node missing")
	}
}

func TestSnapshotPolicyOperations(t *testing.T) {
	s := openStore(t, Options{SnapshotEveryOps: 5})
	if err := s.AppendBatch(chainUpdates(10)); err != nil {
		t.Fatal(err)
	}
	s.WaitSnapshots()
	st := s.Stats()
	// Policy triggers at ops 5/10/15; triggers that land while the worker
	// is busy are skipped (backpressure), so at least two must land.
	if st.Snapshots < 2 {
		t.Errorf("19 ops with policy 5 created %d snapshots", st.Snapshots)
	}
	if st.SnapshotBytes == 0 {
		t.Error("snapshots must consume disk")
	}
	if st.LogBytes == 0 || st.Updates != 19 {
		t.Errorf("stats: %+v", st)
	}
}

// TestPolicySnapshotIsCachedByItsFirstRead: the snapshot worker persists a
// policy element and drops its graph. The first read at the element's
// timestamp loads it and caches it; the second hits the cache, loads nothing
// and replays nothing.
func TestPolicySnapshotIsCachedByItsFirstRead(t *testing.T) {
	s := openStore(t, Options{SnapshotEveryOps: 5})
	if err := s.AppendBatch(chainUpdates(10)); err != nil {
		t.Fatal(err)
	}
	s.WaitSnapshots()
	chain := s.seg.elems()
	if got := elemKinds(chain); got != "fdd" {
		t.Fatalf("chain %s, want a full and two deltas", got)
	}
	if n := s.Stats().GraphStore.Snapshots; n != 0 {
		t.Fatalf("%d graphs cached before any read", n)
	}
	d := chain[1]
	first := s.Stats()
	if n := replayedBy(s, func() { mustGraph(t, s, d.pos.ts) }); n != d.count {
		t.Errorf("the first read at %d replayed %d updates, want the delta's %d", d.pos.ts, n, d.count)
	}
	second := s.Stats()
	if second.GraphStore.Snapshots != 1 || !s.gs.Holds(d.pos.ts) || second.LoadedEntities == first.LoadedEntities {
		t.Fatalf("the first read at %d loaded %d entity versions and left %d graphs cached, want the element's graph", d.pos.ts, second.LoadedEntities-first.LoadedEntities, second.GraphStore.Snapshots)
	}
	var g *memgraph.Graph
	if n := replayedBy(s, func() { g = mustGraph(t, s, d.pos.ts) }); n != 0 || g.NodeCount() != 10 {
		t.Errorf("the second read at %d replayed %d updates for %d nodes, want 0 for 10", d.pos.ts, n, g.NodeCount())
	}
	if st := s.Stats(); st.GraphStore.Hits != second.GraphStore.Hits+1 || st.LoadedEntities != second.LoadedEntities {
		t.Errorf("the second read: %d hits, %d entity versions loaded; want 1 and 0", st.GraphStore.Hits-second.GraphStore.Hits, st.LoadedEntities-second.LoadedEntities)
	}
}

// TestWaitSnapshotsWhileAppending: a caller may wait for the snapshot worker
// while a committer keeps scheduling snapshots — a sync.WaitGroup behind
// WaitSnapshots panics ("reused before previous Wait has returned") when an
// append adds to it from zero during a Wait — and every wait still returns
// with nothing it could see pending.
func TestWaitSnapshotsWhileAppending(t *testing.T) {
	s := openStore(t, Options{SnapshotEveryOps: 1, FS: vfstest.NewFaultFS(), Dir: "ts"})
	var stop atomic.Bool
	waiters := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func() {
			defer func() { waiters <- struct{}{} }()
			for !stop.Load() {
				s.WaitSnapshots()
			}
		}()
	}
	var err error
	for i := 0; i < 1000 && err == nil; i++ {
		err = s.Append(model.AddNode(model.Timestamp(i+1), model.NodeID(i), nil, nil))
	}
	stop.Store(true)
	for w := 0; w < 4; w++ {
		<-waiters
	}
	if err != nil {
		t.Fatal(err)
	}
	s.WaitSnapshots()
	if st := s.Stats(); st.Snapshots < 100 {
		t.Errorf("%d snapshots of 1000 appends at one a timestamp", st.Snapshots)
	}
}

func TestGetGraphsSeries(t *testing.T) {
	ctx := context.Background()
	s := openStore(t, Options{SnapshotEveryOps: 6})
	if err := s.AppendBatch(chainUpdates(10)); err != nil {
		t.Fatal(err)
	}
	graphs, err := getGraphs(ctx, s, 2, 18, 4) // ts 2, 6, 10, 14, 18
	if err != nil {
		t.Fatal(err)
	}
	if len(graphs) != 5 {
		t.Fatalf("series length %d, want 5", len(graphs))
	}
	for i, g := range graphs {
		ts := model.Timestamp(2 + 4*i)
		if g.Timestamp() != ts {
			t.Errorf("series[%d] ts = %d, want %d", i, g.Timestamp(), ts)
		}
		ref, _ := s.GetGraphContext(ctx, ts)
		if g.NodeCount() != ref.NodeCount() || g.RelCount() != ref.RelCount() {
			t.Errorf("series[%d] %d/%d, direct %d/%d",
				i, g.NodeCount(), g.RelCount(), ref.NodeCount(), ref.RelCount())
		}
	}
	if _, err := getGraphs(ctx, s, 0, 10, 0); err == nil {
		t.Error("zero step must fail")
	}
	if _, err := getGraphs(ctx, s, 10, 0, 1); err == nil {
		t.Error("inverted range must fail")
	}
}

// Each step of a GetGraphs series is a clone of the previous one with the
// step's updates applied: what it allocates is the vectors' directories and the
// chunks those updates write, not a copy of the vectors (4.3 MB a step when
// the vector was the copy-on-write unit).
func TestGetGraphsStepCopiesChunks(t *testing.T) {
	s, steps := chunkHistory(t)
	allocated := func(end model.Timestamp) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		graphs, err := getGraphs(context.Background(), s, 1, end, 1)
		runtime.ReadMemStats(&after)
		if err != nil || len(graphs) != int(end) {
			t.Fatalf("GetGraphs(1, %d, 1): %d graphs, %v", end, len(graphs), err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	allocated(1) // loads the base and caches it
	base := allocated(1)
	series := allocated(1 + model.Timestamp(steps))
	// Four directories of 196 chunks (12.5 KiB) and the seven chunks the three
	// updates write (30 KiB) measure 46 KiB a step.
	if perStep := (int64(series) - int64(base)) / int64(steps); perStep > 64<<10 {
		t.Errorf("a GetGraphs step over 100000 entities allocates %d bytes, over the bound of %d: it copies the vectors", perStep, 64<<10)
	}
}

// A window three updates past a cached base is the base's clone with them
// united: beyond what GetGraph pays for the base it allocates what a GetGraphs
// step does, not a copy of every entity.
func TestGetWindowCopiesChunks(t *testing.T) {
	ctx := context.Background()
	s, _ := chunkHistory(t)
	allocated := func(read func() (*memgraph.Graph, error)) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g, err := read()
		runtime.ReadMemStats(&after)
		if err != nil || g.NodeCount() != 50000 {
			t.Fatalf("%d nodes, %v", g.NodeCount(), err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	base := func() (*memgraph.Graph, error) { return s.GetGraphContext(ctx, 1) }
	window := func() (*memgraph.Graph, error) { return s.GetWindowContext(ctx, 1, 3) }
	allocated(window) // loads the base and caches it, and fills the scan's buffer pool
	beyond := int64(allocated(window)) - int64(allocated(base))
	t.Logf("a window three updates past its base allocates %d bytes beyond it", beyond)
	if beyond > 64<<10 {
		t.Errorf("a window three updates past its base allocates %d bytes beyond it, over the bound of %d: it copies the entities", beyond, 64<<10)
	}
}

// chunkHistory is a store of 50000 nodes in a ring of relationships at ts 1,
// snapshotted there, then steps timestamps of three updates each: a property,
// a relationship and a deletion.
func chunkHistory(t *testing.T) (s *Store, steps int) {
	const nodes = 50000
	steps = 20
	s = openStore(t, Options{SnapshotEveryOps: 1 << 30})
	var us []model.Update
	for i := 0; i < nodes; i++ {
		us = append(us, model.AddNode(1, model.NodeID(i), []string{"N"}, nil))
	}
	for i := 0; i < nodes; i++ {
		us = append(us, model.AddRel(1, model.RelID(i), model.NodeID(i), model.NodeID((i+1)%nodes), "R", nil))
	}
	if err := s.AppendBatch(us); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateSnapshot(); err != nil { // the base of every series: cached once read
		t.Fatal(err)
	}
	us = us[:0]
	for k := 1; k <= steps; k++ { // a property, a relationship and its deletion
		ts, n := model.Timestamp(1+k), model.NodeID(k*7919%nodes)
		us = append(us, model.UpdateNode(ts, n, nil, nil, model.Properties{"k": model.IntValue(int64(k))}, nil),
			model.AddRel(ts, model.RelID(nodes+k), n, n/2, "R", nil), model.DeleteRel(ts, model.RelID(k), model.NodeID(k), model.NodeID(k+1)))
	}
	if err := s.AppendBatch(us); err != nil {
		t.Fatal(err)
	}
	return s, steps
}

// A diff's hops are the relationship versions it opens and closes: rel 0
// flies [3, 5); rel 1, created at 6, is past [2, 6) and still open in [2, 7);
// and a diff from 4 on lacks rel 0's departure.
func TestGetDiffHops(t *testing.T) {
	s := openStore(t, Options{SnapshotEveryOps: 4})
	us := []model.Update{
		model.AddNode(1, 0, nil, nil),
		model.AddNode(2, 1, nil, nil),
		model.AddRel(3, 0, 0, 1, "R", nil),
		model.UpdateNode(4, 0, nil, nil, model.Properties{"x": model.IntValue(1)}, nil),
		model.DeleteRel(5, 0, 0, 1),
		model.AddRel(6, 1, 1, 0, "R", nil),
	}
	if err := s.AppendBatch(us); err != nil {
		t.Fatal(err)
	}
	rel0 := []algo.PathHop{{Rel: 0, From: 0, To: 1, Departure: 3, Arrival: 5}}
	for _, w := range []struct {
		from, to model.Timestamp
		want     []algo.PathHop
	}{{2, 6, rel0}, {2, 7, rel0}, {3, 5, nil}, {4, 7, nil}} {
		diff, err := s.GetDiffContext(context.Background(), w.from, w.to)
		if err != nil {
			t.Fatal(err)
		}
		if hops := algo.Hops(diff); !slices.Equal(hops, w.want) {
			t.Errorf("hops of [%d, %d) = %+v, want %+v", w.from, w.to, hops, w.want)
		}
	}
}

func TestGetWindow(t *testing.T) {
	s := openStore(t, Options{SnapshotEveryOps: 100})
	us := []model.Update{
		model.AddNode(1, 0, nil, nil),
		model.AddNode(1, 1, nil, nil),
		model.AddNode(1, 2, nil, nil),
		model.AddRel(2, 0, 0, 1, "R", nil), // valid at window start
		model.DeleteRel(4, 0, 0, 1),        // deleted inside window
		model.AddNode(5, 3, nil, nil),      // created inside window
		model.AddRel(6, 1, 3, 2, "R", nil), // created inside window
	}
	if err := s.AppendBatch(us); err != nil {
		t.Fatal(err)
	}
	g, err := s.GetWindowContext(context.Background(), 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	// All 4 nodes were present at some point in [3,7).
	if g.NodeCount() != 4 {
		t.Errorf("window nodes = %d, want 4", g.NodeCount())
	}
	// Rel 0 was valid at window start (present), rel 1 created inside.
	if g.RelCount() != 2 {
		t.Errorf("window rels = %d, want 2", g.RelCount())
	}
}

// A point window is the graph at its instant, and a window that ends before
// it starts is empty.
func TestGetWindowDegenerate(t *testing.T) {
	s := openStore(t, Options{SnapshotEveryOps: 100})
	if err := s.AppendBatch([]model.Update{
		model.AddNode(1, 0, nil, nil),
		model.AddNode(2, 1, nil, nil),
		model.AddNode(3, 2, nil, nil),
	}); err != nil {
		t.Fatal(err)
	}
	for _, w := range []struct {
		start, end, at model.Timestamp
		nodes          []model.NodeID
	}{
		{2, 2, 2, []model.NodeID{0, 1}},
		{2, 3, 2, []model.NodeID{0, 1}},
		{2, 4, 3, []model.NodeID{0, 1, 2}},
		{0, 0, 0, nil},
		{5, 5, 5, []model.NodeID{0, 1, 2}},
		{3, 2, 0, nil},
		{9, 1, 0, nil},
	} {
		g, err := s.GetWindowContext(context.Background(), w.start, w.end)
		if err != nil {
			t.Fatal(err)
		}
		var nodes []model.NodeID
		g.ForEachNode(func(n *model.Node) bool {
			nodes = append(nodes, n.ID)
			return true
		})
		if !slices.Equal(nodes, w.nodes) || len(nodes) > 0 && g.Timestamp() != w.at {
			t.Errorf("GetWindow(%d, %d) = %v at %d, want %v at %d", w.start, w.end, nodes, g.Timestamp(), w.nodes, w.at)
		}
	}
}

// Two calls for the same window answer the same graph, adjacency lists in the
// same order: the base's, then the log's.
func TestGetWindowIsDeterministic(t *testing.T) {
	ctx := context.Background()
	s := openStore(t, Options{SnapshotEveryOps: 100})
	us := []model.Update{model.AddNode(1, 0, []string{"Hub"}, nil)}
	for i := 1; i <= 128; i++ {
		us = append(us, model.AddNode(1, model.NodeID(i), nil, nil))
	}
	for i := 0; i < 128; i++ { // a spoke a timestamp, out and back
		ts, spoke := model.Timestamp(2+i/32), model.NodeID(1+i)
		us = append(us, model.AddRel(ts, model.RelID(2*i), 0, spoke, "R", nil), model.AddRel(ts, model.RelID(2*i+1), spoke, 0, "R", nil))
	}
	if err := s.AppendBatch(us); err != nil {
		t.Fatal(err)
	}
	codec := enc.NewCodec(strstore.NewMem())
	first, err := s.GetWindowContext(ctx, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	for call := 0; call < 5; call++ {
		g, err := s.GetWindowContext(ctx, 2, 5)
		if err != nil {
			t.Fatal(err)
		}
		if modelDigest(t, codec, g.Export()) != modelDigest(t, codec, first.Export()) {
			t.Fatalf("call %d: another export", call)
		}
		for id := model.NodeID(0); id <= 128; id++ {
			if !slices.Equal(g.Out(id), first.Out(id)) || !slices.Equal(g.In(id), first.In(id)) {
				t.Fatalf("call %d: node %d lists out %v, in %v; the first call %v, %v", call, id, g.Out(id), g.In(id), first.Out(id), first.In(id))
			}
		}
	}
	if out := first.Out(0); len(out) != 96 || !slices.IsSorted(out) {
		t.Errorf("the hub lists %d relationships out, %v; want the 96 of [2, 5) in log order", len(out), out)
	}
}

func TestRecoveryAfterReopen(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	codec := enc.NewCodec(strstore.NewMem())
	s, err := Open(codec, Options{Dir: dir, SnapshotEveryOps: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendBatch(chainUpdates(10)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(codec, Options{Dir: dir, SnapshotEveryOps: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.LatestTimestamp() != 19 {
		t.Errorf("recovered ts = %d", s2.LatestTimestamp())
	}
	g, err := s2.GetGraphContext(ctx, 19)
	if err != nil {
		t.Fatal(err)
	}
	if g.NodeCount() != 10 || g.RelCount() != 9 {
		t.Errorf("recovered graph %d/%d", g.NodeCount(), g.RelCount())
	}
	// Appends continue after recovery.
	if err := s2.Append(model.AddNode(20, 10, nil, nil)); err != nil {
		t.Fatal(err)
	}
	g2, _ := s2.GetGraphContext(ctx, 20)
	if g2.NodeCount() != 11 {
		t.Error("append after recovery")
	}
	// Historical queries still work.
	g5, err := s2.GetGraphContext(ctx, 5)
	if err != nil || g5.NodeCount() != 5 {
		t.Errorf("historical query after reopen: %v nodes=%d", err, g5.NodeCount())
	}
}

func TestRecoveryWithoutClose(t *testing.T) {
	// Simulate a crash: append without Close, then reopen and verify the
	// fences are laid again from the log.
	dir := t.TempDir()
	codec := enc.NewCodec(strstore.NewMem())
	s, err := Open(codec, Options{Dir: dir, SnapshotEveryOps: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendBatch(chainUpdates(5)); err != nil {
		t.Fatal(err)
	}
	// Log writes go straight to the file, so nothing needs syncing.

	s2, err := Open(codec, Options{Dir: dir, SnapshotEveryOps: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	diff, err := s2.GetDiffContext(context.Background(), 0, model.TSInfinity)
	if err != nil {
		t.Fatal(err)
	}
	if len(diff) != 9 {
		t.Errorf("reopened store found %d updates, want 9", len(diff))
	}
}

func TestScanDiffEarlyStop(t *testing.T) {
	s := openStore(t, Options{})
	s.AppendBatch(chainUpdates(10))
	n := 0
	s.ScanDiffContext(context.Background(), 0, model.TSInfinity, func(u model.Update) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("early stop at %d", n)
	}
}

// TestSnapshotPolicyDefaults pins the one policy's settings: an unset
// SnapshotEveryOps means DefaultSnapshotEveryOps (16 384 updates, what the
// benchmark runs), so a history one policy interval long takes one snapshot,
// and a negative one takes none, however long the log grows.
func TestSnapshotPolicyDefaults(t *testing.T) {
	if DefaultSnapshotEveryOps != 16384 {
		t.Fatalf("DefaultSnapshotEveryOps = %d, want 16384", DefaultSnapshotEveryOps)
	}
	us := chainUpdates(DefaultSnapshotEveryOps/2 + 8) // an interval and a few updates past it
	for _, tc := range []struct{ every, want int }{{0, 1}, {-1, 0}} {
		s := openStore(t, Options{SnapshotEveryOps: tc.every})
		if err := s.AppendBatch(us); err != nil {
			t.Fatal(err)
		}
		s.WaitSnapshots()
		if st := s.Stats(); st.Snapshots != tc.want || st.SnapshotsOverdue != 0 {
			t.Errorf("SnapshotEveryOps %d: %d policy snapshots over %d updates (%d intervals overdue), want %d",
				tc.every, st.Snapshots, len(us), st.SnapshotsOverdue, tc.want)
		}
	}
}

// failSyncFS is the OS filesystem with every log fsync failing once armed.
type failSyncFS struct {
	vfs.FS
	armed *atomic.Bool
}

type failSyncFile struct {
	vfs.File
	armed *atomic.Bool
}

func (fs failSyncFS) OpenFile(path string) (vfs.File, error) {
	f, err := fs.FS.OpenFile(path)
	if err != nil {
		return nil, err
	}
	return failSyncFile{File: f, armed: fs.armed}, nil
}

func (f failSyncFile) Sync() error {
	if f.armed.Load() {
		return vfstest.ErrInjected
	}
	return f.File.Sync()
}

// TestCloseReleasesDescriptors opens, fills and closes a store whose policy
// writes snapshots repeatedly — the last time over a filesystem whose fsync
// fails, so Close's flush errors — and checks that the process holds no more
// descriptors than when it started: Close must close the log and every
// element file on every path.
func TestCloseReleasesDescriptors(t *testing.T) {
	openFDs := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("no descriptor table to count: %v", err)
		}
		return len(ents)
	}
	var failSync atomic.Bool
	fs := failSyncFS{FS: vfs.OS, armed: &failSync}
	us := chainUpdates(20)
	start := openFDs()
	for i := 0; i <= 50; i++ {
		s, err := Open(enc.NewCodec(strstore.NewMem()), Options{Dir: t.TempDir(), FS: fs, SnapshotEveryOps: 10})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.AppendBatch(us[:12]); err != nil {
			t.Fatal(err)
		}
		if err := s.AppendBatch(us[12:]); err != nil { // schedules a policy snapshot of the first 12
			t.Fatal(err)
		}
		failSync.Store(i == 50)
		if err := s.Close(); (err != nil) != (i == 50) {
			t.Fatalf("round %d: Close error = %v", i, err)
		} else if i == 50 && !errors.Is(err, vfstest.ErrInjected) {
			t.Fatalf("Close over the failing filesystem returned %v", err)
		}
		failSync.Store(false)
	}
	if got := openFDs(); got > start {
		t.Errorf("%d descriptors open after 51 Open/Close rounds, %d before", got, start)
	}
}

// Append writes one committed update: AppendBatch of a single update.
func (s *Store) Append(u model.Update) error {
	return s.AppendBatch([]model.Update{u})
}
