package timestore

// The chain's rule: between fulls the snapshot worker writes differential
// elements. These tests pin the rule
// itself, the read path across delta elements (from disk, and from a cached
// neighbour), the guard on that shortcut, and the catalogue bugfix.

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"aion/internal/enc"
	"aion/internal/memgraph"
	"aion/internal/model"
	"aion/internal/strstore"
	"aion/internal/testkit/memshare"
	"aion/internal/testkit/vfstest"
	"aion/internal/vfs"
	"aion/internal/wal"
)

// policySnapshot persists, synchronously, what the snapshot worker would for
// a policy trigger at the current position — which the caller keeps at a
// timestamp boundary, as the policy does.
func policySnapshot(s *Store) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	g, err := s.latestLocked(context.Background())
	if err != nil {
		return err
	}
	at := fence{pos: position{ts: g.Timestamp(), seq: s.seq}, off: s.seg.log.Size()}
	return s.persistSnapshot(g, at, s.seg.deltaBase(at.pos, s.opts.DeltaChainLength))
}

func policySnapshotNow(t *testing.T, s *Store) {
	t.Helper()
	if err := policySnapshot(s); err != nil {
		t.Fatal(err)
	}
}

// appendSettled appends us one by one, letting the snapshot worker finish
// after each, so every element is written before the next append.
func appendSettled(t *testing.T, s *Store, us []model.Update) {
	t.Helper()
	for _, u := range us {
		if err := s.Append(u); err != nil {
			t.Fatal(err)
		}
		s.WaitSnapshots()
	}
}

// openBare is openStore for a test that closes and reopens its store itself.
func openBare(t *testing.T, codec *enc.Codec, opts Options) *Store {
	t.Helper()
	s, err := Open(codec, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// reopened closes s and opens its directory again with opts.
func reopened(t *testing.T, s *Store, opts Options) *Store {
	t.Helper()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return openBare(t, s.codec, opts)
}

func elemKinds(chain []chainElem) string {
	b := make([]byte, len(chain))
	for i, e := range chain {
		b[i] = "fd"[e.kind-enc.DeltaFull]
	}
	return string(b)
}

// TestActiveChainRule drives one seeded history through a store
// with a two-delta chain and through its fulls-only twin: the policy puts
// both chains' elements at the same positions, every one the end of a
// timestamp; the first holds full, delta, delta, full, … with every delta
// based on its predecessor, in fewer bytes; and every read path of the delta
// store equals the brute-force oracle — with the cache warm, with a
// one-entry cache after a reopen, and after a reopen on the host's graph.
func TestActiveChainRule(t *testing.T) {
	us := fenceHistory(11, 600)
	pos := streamPositions(us)
	opts := Options{Dir: t.TempDir(), SnapshotEveryOps: 40, DeltaChainLength: 2}
	delta := openBare(t, enc.NewCodec(strstore.NewMem()), opts)
	defer func() { delta.Close() }()
	fulls := openStore(t, Options{SnapshotEveryOps: 40, DeltaChainLength: -1})
	appendSettled(t, delta, us)
	appendSettled(t, fulls, us)

	dc, fc := delta.seg.elems(), fulls.seg.elems()
	if len(dc) < 9 || len(dc) != len(fc) {
		t.Fatalf("%d elements against the twin's %d, want the same number and at least 9", len(dc), len(fc))
	}
	wantKinds := ""
	for i := range dc {
		wantKinds += string("fdd"[i%3])
	}
	if got := elemKinds(dc); got != wantKinds {
		t.Errorf("chain kinds %s, want %s", got, wantKinds)
	}
	if got := elemKinds(fc); got != strings.Repeat("f", len(fc)) {
		t.Errorf("fulls-only twin's chain kinds %s", got)
	}
	for i, e := range dc {
		if e.pos != fc[i].pos || e.logOff != fc[i].logOff {
			t.Errorf("element %d at %+v/%d, the twin's at %+v/%d", i, e.pos, e.logOff, fc[i].pos, fc[i].logOff)
		}
		k := slices.Index(pos, e.pos)
		if k < 0 || (k+1 < len(pos) && pos[k+1].ts == e.pos.ts) {
			t.Errorf("element %d at %+v is not the end of a timestamp", i, e.pos)
		}
		if e.kind == enc.DeltaDiff && e.base != dc[i-1].pos {
			t.Errorf("delta %d is based on %+v, its predecessor is at %+v", i, e.base, dc[i-1].pos)
		}
	}
	ds, fs := delta.Stats(), fulls.Stats()
	if want := len(dc) - (len(dc)+2)/3; ds.DeltaSnapshots != want || fs.DeltaSnapshots != 0 {
		t.Errorf("Stats.DeltaSnapshots %d (twin %d), want %d (0)", ds.DeltaSnapshots, fs.DeltaSnapshots, want)
	}
	if ds.SnapshotErrors != 0 || ds.Snapshots != len(dc) || ds.SnapshotBytes >= fs.SnapshotBytes {
		t.Errorf("delta store: %d errors (%s), %d snapshots, %d chain bytes against the twin's %d",
			ds.SnapshotErrors, ds.LastSnapshotError, ds.Snapshots, ds.SnapshotBytes, fs.SnapshotBytes)
	}

	o := &fenceOracle{t: t, us: us, pos: pos, codec: delta.codec}
	o.check(delta, "warm cache")
	cold := opts
	cold.GraphStoreBytes = 1 // the cache keeps its newest entry only
	delta = reopened(t, delta, cold)
	if got := elemKinds(delta.seg.elems()); got != wantKinds {
		t.Errorf("chain kinds %s after reopen, want %s", got, wantKinds)
	}
	o.check(delta, "one-entry cache after reopen")
	hosted := opts
	hosted.Host = hostOf(t, us).Committed
	delta = reopened(t, delta, hosted)
	if st := delta.Stats(); delta.own != nil || st.LoadedEntities != 0 {
		t.Errorf("reopened on a host the store built a graph of its own: %d entity versions loaded", st.LoadedEntities)
	}
	o.check(delta, "reopened on the host's graph")
}

// holdFS is a FaultFS on which no chain element can be created until release
// is closed: a snapshot worker as far behind as a test likes.
type holdFS struct {
	*vfstest.FaultFS
	release chan struct{}
}

func (fs holdFS) Create(path string) (vfs.File, error) {
	if strings.HasSuffix(path, ".dsnap.tmp") {
		<-fs.release
	}
	return fs.FaultFS.Create(path)
}

// TestBusyWorkerMovesNoElement: where a policy element lands depends on the
// update stream alone. A store whose worker can write no element for six
// policy intervals — commits outrunning it, as a bulk load's do — ends with
// the chain, element for element, of a store whose worker finished each
// element before the next commit.
func TestBusyWorkerMovesNoElement(t *testing.T) {
	const every = 40
	free := openStore(t, Options{SnapshotEveryOps: every, DeltaChainLength: 2})
	fs := holdFS{FaultFS: vfstest.NewFaultFS(), release: make(chan struct{})}
	held := openStore(t, Options{Dir: "ts", FS: fs, SnapshotEveryOps: every, DeltaChainLength: 2})
	release := func() {
		select {
		case <-fs.release:
		default:
			close(fs.release)
		}
	}
	t.Cleanup(release) // before held's Close, which waits for the worker
	for _, us := range commitsOf(fenceHistory(13, 7*every)) {
		if err := free.AppendBatch(us); err != nil {
			t.Fatal(err)
		}
		free.WaitSnapshots()
		if err := held.AppendBatch(us); err != nil {
			t.Fatal(err)
		}
	}
	release()
	held.WaitSnapshots()
	fc, hc := free.seg.elems(), held.seg.elems()
	if len(fc) < 6 || len(hc) != len(fc) {
		t.Fatalf("%d elements written by the held worker, %d by the free one, want the same number and at least 6", len(hc), len(fc))
	}
	for i, e := range hc {
		e.path = fc[i].path
		if e != fc[i] {
			t.Errorf("element %d: the held worker wrote %+v, the free one %+v", i, e, fc[i])
		}
	}
}

// replayedBy returns how many updates fn's queries applied on top of a base.
func replayedBy(s *Store, fn func()) uint64 {
	before := s.Stats().ReplayedUpdates
	fn()
	return s.Stats().ReplayedUpdates - before
}

func mustGraph(t *testing.T, s *Store, ts model.Timestamp) *memgraph.Graph {
	t.Helper()
	g, err := s.GetGraphContext(context.Background(), ts)
	if err != nil {
		t.Fatalf("GetGraph(%d): %v", ts, err)
	}
	return g
}

// sharedNodes counts the nodes a and b hold as the very same record.
func sharedNodes(a, b *memgraph.Graph) int {
	n, _ := memshare.Records(a, b)
	return n
}

// TestCachedNeighbourMaterialization pins the read-side shortcut by what it
// reads: a miss on delta element j with nothing cached applies every delta
// since the run's full; with element j-1 cached it applies delta j alone, and
// the graph it builds shares the entities that delta leaves alone with its
// neighbour. Both equal the oracle.
func TestCachedNeighbourMaterialization(t *testing.T) {
	us := fenceHistory(5, 400)
	opts := Options{Dir: t.TempDir(), SnapshotEveryOps: 40, DeltaChainLength: 3}
	s := openBare(t, enc.NewCodec(strstore.NewMem()), opts)
	defer func() { s.Close() }()
	appendSettled(t, s, us)
	s = reopened(t, s, opts) // an empty cache
	chain := s.seg.elems()
	if got := elemKinds(chain[:5]); got != "fdddf" {
		t.Fatalf("chain starts %s, want fdddf", got)
	}
	o := &fenceOracle{t: t, us: us, pos: streamPositions(us), codec: s.codec}
	same := func(g *memgraph.Graph, ts model.Timestamp) {
		t.Helper()
		if o.digest(g.Export()) != o.digest(o.graphAt(ts).Export()) {
			t.Errorf("GetGraph(%d) differs from the brute-force graph", ts)
		}
	}
	d1, d2, d3 := chain[1], chain[2], chain[3]
	var g2, g3 *memgraph.Graph
	if got, want := replayedBy(s, func() { g2 = mustGraph(t, s, d2.pos.ts) }), d1.count+d2.count; got != want {
		t.Errorf("cold miss on the second delta applied %d updates, want both deltas' %d", got, want)
	}
	same(g2, d2.pos.ts)
	if got := replayedBy(s, func() { g3 = mustGraph(t, s, d3.pos.ts) }); got != d3.count {
		t.Errorf("miss on the third delta beside its cached neighbour applied %d updates, want that delta's %d", got, d3.count)
	}
	same(g3, d3.pos.ts)
	if n := sharedNodes(g2, g3); n == 0 || n == g3.NodeCount() {
		t.Errorf("the third delta's graph shares %d of %d nodes with its neighbour, want some and not all", n, g3.NodeCount())
	}
	// An element of another run is no neighbour: the next full loads alone.
	g4 := mustGraph(t, s, chain[4].pos.ts)
	same(g4, chain[4].pos.ts)
	if n := sharedNodes(g3, g4); n != 0 {
		t.Errorf("a graph loaded from a full shares %d nodes with a cached one", n)
	}
}

// TestRunSharesWhateverTheMissOrder pins what keeps a store's resident size a
// function of what it caches: a run's later element cached first, from the
// files, is derived again when an earlier one is materialized, so the two
// cached graphs hold the untouched entities once — as they do when the misses
// come oldest first — and the rebuilt one is still the oracle's, in its old
// place in the cache.
func TestRunSharesWhateverTheMissOrder(t *testing.T) {
	us := fenceHistory(5, 400)
	opts := Options{Dir: t.TempDir(), SnapshotEveryOps: 40, DeltaChainLength: 3}
	s := openBare(t, enc.NewCodec(strstore.NewMem()), opts)
	defer func() { s.Close() }()
	appendSettled(t, s, us)
	s = reopened(t, s, opts) // an empty cache
	chain := s.seg.elems()
	if got := elemKinds(chain[:5]); got != "fdddf" {
		t.Fatalf("chain starts %s, want fdddf", got)
	}
	o := &fenceOracle{t: t, us: us, pos: streamPositions(us), codec: s.codec}
	d1, d2, d3 := chain[1], chain[2], chain[3]
	mustGraph(t, s, d3.pos.ts) // newest first: full, three deltas
	before := s.GraphStore().Stats()
	if got, want := replayedBy(s, func() { mustGraph(t, s, d1.pos.ts) }), d1.count+d2.count+d3.count; got != want {
		t.Errorf("miss on the first delta below a cached third applied %d updates, want the run's %d", got, want)
	}
	if after := s.GraphStore().Stats(); after.Snapshots != before.Snapshots+1 || after.Evictions != before.Evictions || after.Bytes <= before.Bytes {
		t.Errorf("the cache went from %+v to %+v, want one more snapshot and nothing else moved", before, after)
	}
	g1, _, _ := s.GraphStore().Floor(d1.pos.ts)
	g3, _, _ := s.GraphStore().Floor(d3.pos.ts)
	if n := sharedNodes(g1, g3); n == 0 || n == g3.NodeCount() {
		t.Errorf("the run's cached graphs share %d of %d nodes, want some and not all", n, g3.NodeCount())
	}
	if o.digest(g3.Export()) != o.digest(o.graphAt(d3.pos.ts).Export()) {
		t.Errorf("the rebuilt graph at %d differs from the brute-force graph", d3.pos.ts)
	}
}

// TestShortcutNeedsACompleteBase is the guard: an eager snapshot taken
// mid-timestamp is the base of the policy delta that follows it, and a graph
// cached under that timestamp holds more than the snapshot does, so it must
// not stand in for it — whether or not the cache is warm, the delta's graph is
// the oracle's. An eager snapshot that does end its timestamp may be stood in
// for.
func TestShortcutNeedsACompleteBase(t *testing.T) {
	var us []model.Update
	add := func(ts model.Timestamp) {
		us = append(us, model.AddNode(ts, model.NodeID(len(us)), []string{"N"}, nil))
	}
	opts := Options{Dir: t.TempDir(), SnapshotEveryOps: 1 << 30}
	s := openBare(t, enc.NewCodec(strstore.NewMem()), opts)
	defer func() { s.Close() }()
	step := func(ts model.Timestamp) {
		t.Helper()
		add(ts)
		if err := s.Append(us[len(us)-1]); err != nil {
			t.Fatal(err)
		}
	}
	step(1)
	step(5)
	step(5)
	snapshotNow(t, s) // full at (5,1), one update short of timestamp 5
	step(5)
	step(6)
	step(7)
	policySnapshotNow(t, s) // delta at (7,0) on (5,1)
	step(8)
	step(9)
	snapshotNow(t, s) // full at (9,0): all of timestamp 9
	step(10)
	step(11)
	policySnapshotNow(t, s) // delta at (11,0) on (9,0)
	step(12)
	chain := s.seg.elems()
	if got := elemKinds(chain); got != "fdfd" || chain[1].base != chain[0].pos || chain[3].base != chain[2].pos {
		t.Fatalf("chain %s with bases %+v, %+v", got, chain[1].base, chain[3].base)
	}
	want := func(ts model.Timestamp) int {
		n := 0
		for _, u := range us {
			if u.TS <= ts {
				n++
			}
		}
		return n
	}
	for _, warm := range []bool{false, true} {
		s = reopened(t, s, opts)
		if warm {
			// What a procedure caching its intermediate result does: the graph
			// at timestamp 5, all three of its updates in.
			g5 := mustGraph(t, s, 5)
			if g5.NodeCount() != want(5) {
				t.Fatalf("GetGraph(5) has %d nodes, want %d", g5.NodeCount(), want(5))
			}
			s.GraphStore().Put(g5)
		}
		if g := mustGraph(t, s, 7); g.NodeCount() != want(7) {
			t.Errorf("warm=%v: GetGraph(7) has %d nodes, want %d", warm, g.NodeCount(), want(7))
		}
		// The complete eager full: loading it caches it, and the delta on it
		// is then all the next miss applies.
		if g := mustGraph(t, s, 9); g.NodeCount() != want(9) {
			t.Errorf("warm=%v: GetGraph(9) has %d nodes, want %d", warm, g.NodeCount(), want(9))
		}
		var g11 *memgraph.Graph
		if got := replayedBy(s, func() { g11 = mustGraph(t, s, 11) }); got != chain[3].count || g11.NodeCount() != want(11) {
			t.Errorf("warm=%v: GetGraph(11) applied %d updates for %d nodes, want %d for %d", warm, got, g11.NodeCount(), chain[3].count, want(11))
		}
	}
}

// TestSupersededElementFileRemoved pins the catalogue bugfix: an element that
// replaces one of the other kind at the same position is another file name,
// and the loser leaves the directory with the catalogue — in both directions
// — so Stats accounts for every element file on disk.
func TestSupersededElementFileRemoved(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, Options{Dir: dir, SnapshotEveryOps: 1 << 30})
	if err := s.AppendBatch(chainUpdates(4)[:3]); err != nil {
		t.Fatal(err)
	}
	policySnapshotNow(t, s) // nothing before it: a full at (3,0)
	if err := s.Append(chainUpdates(4)[3]); err != nil {
		t.Fatal(err)
	}
	policySnapshotNow(t, s) // delta at (4,0)
	check := func(label string, want ...string) {
		t.Helper()
		var got []string
		var bytes int64
		for _, f := range snapshotFiles(t, dir) {
			got = append(got, filepath.Base(f))
			fi, err := os.Stat(f)
			if err != nil {
				t.Fatal(err)
			}
			bytes += fi.Size()
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: element files %v, want %v", label, got, want)
		}
		if st := s.Stats(); st.SnapshotBytes != bytes || st.SnapshotErrors != 0 {
			t.Errorf("%s: Stats.SnapshotBytes %d, %d on disk; %d snapshot errors", label, st.SnapshotBytes, bytes, st.SnapshotErrors)
		}
		if g := mustGraph(t, s, 4); g.NodeCount() != 4 {
			t.Errorf("%s: GetGraph(4) has %d nodes, want 4", label, g.NodeCount())
		}
	}
	const f3, f4, d4 = "full-0000000000000003-00000000.dsnap", "full-0000000000000004-00000000.dsnap", "delta-0000000000000004-00000000.dsnap"
	check("policy", d4, f3)
	snapshotNow(t, s) // an eager full at the delta's position
	check("full over delta", f3, f4)
	// The other direction cannot come from the worker (deltaBase yields a full
	// where an element already sits), so hand persistSnapshot the base.
	s.mu.Lock()
	base := s.seg.elems()[0]
	at := fence{pos: position{ts: 4}, off: s.seg.log.Size()}
	g, err := s.latestLocked(context.Background())
	if err == nil {
		err = s.persistSnapshot(g, at, &base)
	}
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	check("delta over full", d4, f3)
}

// TestOpenDropsRecordCarryingDelta pins the format rule: a delta is its
// header frame alone, and the log window it names is its records. A delta
// written before that carries records behind its header, and its Count counts
// those, not its window; there is no migration. Open removes it — here one
// whose records are its whole window, which applied would even build the
// right graph — its dependants, orphans now, go with it, and the log answers
// every read they served.
func TestOpenDropsRecordCarryingDelta(t *testing.T) {
	us := fenceHistory(7, 400)
	opts := Options{Dir: t.TempDir(), SnapshotEveryOps: 40, DeltaChainLength: 3}
	s := openBare(t, enc.NewCodec(strstore.NewMem()), opts)
	defer func() { s.Close() }()
	appendSettled(t, s, us)
	chain := s.seg.elems()
	if got := elemKinds(chain[:5]); got != "fdddf" {
		t.Fatalf("chain starts %s, want fdddf", got)
	}
	old := chain[1]
	var window []model.Update
	if err := s.replayWal(context.Background(), chain[0].logOff, old.logOff, func(_ int64, u model.Update) bool {
		window = append(window, u)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	hdr := enc.DeltaHeader{Kind: enc.DeltaDiff, TS: old.pos.ts, Seq: old.pos.seq, BaseTS: old.base.ts, BaseSeq: old.base.seq,
		LogOff: old.logOff, Count: uint64(len(window))}
	if _, err := s.publishFrameFile(old.path, enc.AppendDeltaHeader(nil, hdr), window); err != nil {
		t.Fatal(err)
	}
	s = reopened(t, s, opts)
	if got := s.seg.elems(); len(got) != len(chain)-3 || got[0] != chain[0] || got[1].pos != chain[4].pos {
		t.Errorf("chain after reopen %s, want the first run's full alone and everything from %+v on", elemKinds(got), chain[4].pos)
	}
	for _, e := range chain[1:4] {
		if _, err := os.Stat(e.path); !os.IsNotExist(err) {
			t.Errorf("%s is still on disk (stat: %v)", e.path, err)
		}
	}
	o := &fenceOracle{t: t, us: us, pos: streamPositions(us), codec: s.codec}
	o.check(s, "reopened without the record-carrying delta")
}

// TestBadWindowCountFailsTheDelta: the snapshot worker counts a delta's
// window off its frames' count prefixes and decodes nothing, so a count
// prefix the block codec refuses — in a frame whose checksum holds — must
// fail the persist rather than be written into the header: the error is
// returned and counted, and no element is published.
func TestBadWindowCountFailsTheDelta(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, Options{Dir: dir, SnapshotEveryOps: 1 << 30, DeltaChainLength: 2})
	us := propUpdates(20)
	if err := s.AppendBatch(us[:10]); err != nil {
		t.Fatal(err)
	}
	policySnapshotNow(t, s) // a full
	if err := s.AppendBatch(us[10:]); err != nil {
		t.Fatal(err)
	}
	var offs []int64
	if _, err := s.seg.log.Scan(s.seg.elems()[0].logOff, func(off int64, _ []byte) bool {
		offs = append(offs, off)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	// The window's second frame gets a block count of zero, re-sealed.
	f, err := os.OpenFile(s.seg.log.Path(), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, wal.HeaderSize)
	if _, err := f.ReadAt(frame, offs[1]); err != nil {
		t.Fatal(err)
	}
	frame = append(frame, make([]byte, wal.Size(frame)-wal.HeaderSize)...)
	if _, err := f.ReadAt(frame[wal.HeaderSize:], offs[1]+wal.HeaderSize); err != nil {
		t.Fatal(err)
	}
	frame[wal.HeaderSize] = 0
	wal.Seal(frame)
	_, err = f.WriteAt(frame, offs[1])
	if err = errors.Join(err, f.Close()); err != nil {
		t.Fatal(err)
	}
	if err := policySnapshot(s); err == nil || !strings.Contains(err.Error(), "bad block count") {
		t.Errorf("a delta over a bad block count persisted: %v", err)
	}
	if st := s.Stats(); st.SnapshotErrors != 1 || st.Snapshots != 1 || !strings.Contains(st.LastSnapshotError, "bad block count") {
		t.Errorf("Stats: %d snapshot errors (%q), %d snapshots; want 1 error and the full alone", st.SnapshotErrors, st.LastSnapshotError, st.Snapshots)
	}
	if got := elemKinds(s.seg.elems()); got != "f" {
		t.Errorf("chain %s, want the full alone", got)
	}
	if files := snapshotFiles(t, dir); len(files) != 1 {
		t.Errorf("element files %v, want the full's alone", files)
	}
}
