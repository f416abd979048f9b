package system

// The TimeStore half of the one oracle (ROADMAP item 1a): a hosted TimeStore
// keeps no graph of its own, so every graph it hands out — materialised,
// cached from a policy snapshot, or persisted in a .dsnap element — is checked
// here against internal/refmodel's replay from zero, on a history that goes
// through every way commits reach it.

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"aion/internal/algo"
	"aion/internal/enc"
	"aion/internal/hostdb"
	"aion/internal/memgraph"
	"aion/internal/model"
	"aion/internal/refmodel"
	"aion/internal/strstore"
	"aion/internal/vfs"
)

// historian stages the transactions of one committer's seeded history. It
// touches only entities it created itself, so several may commit at once
// without conflicting, and it keeps what it deleted to create it again with
// the content it had.
type historian struct {
	rng   *rand.Rand
	nodes []model.NodeID
	rels  map[model.RelID]model.Rel
	deg   map[model.NodeID]int
	// gone holds deleted entities, as the add that would restore them.
	gone []model.Update
	// touched holds the entities the transaction being staged has changed: the
	// LineageStore keys a version by (entity, timestamp), so a commit changes
	// an entity at most once (refmodel's stream contract).
	touched map[int64]bool
}

func newHistorian(seed int64) *historian {
	return &historian{rng: rand.New(rand.NewSource(seed)), rels: map[model.RelID]model.Rel{}, deg: map[model.NodeID]int{}}
}

var historyLabels = []string{"Person", "Author", "Venue", "Draft"}

// stage puts one to five operations into tx: creations, multi-edges between
// a few hub nodes, property and label edits, deletions, and re-creations of
// deleted entities under their old id with equal content.
func (h *historian) stage(tx *hostdb.Tx) error {
	h.touched = map[int64]bool{}
	for n := 1 + h.rng.Intn(5); n > 0; n-- {
		k := h.rng.Intn(100)
		if err := h.op(tx, k); err != nil {
			return err
		}
	}
	return nil
}

// first reports whether the transaction has not changed the entity with
// this model.Update.EntityKey yet, and marks it changed.
func (h *historian) first(key int64) bool {
	seen := h.touched[key]
	h.touched[key] = true
	return !seen
}

func (h *historian) op(tx *hostdb.Tx, k int) error {
	pick := func() model.NodeID { return h.nodes[h.rng.Intn(len(h.nodes))] }
	firstNode := func(id model.NodeID) bool { return h.first(int64(id) << 1) }
	firstRel := func(id model.RelID) bool { return h.first(int64(id)<<1 | 1) }
	switch {
	case len(h.nodes) < 4 || k < 20:
		labels := []string{historyLabels[h.rng.Intn(4)], historyLabels[h.rng.Intn(4)]}
		id, err := tx.CreateNode(labels, model.Properties{"name": model.StringValue(fmt.Sprint("n", k)), "v": model.IntValue(int64(k))})
		h.nodes = append(h.nodes, id)
		firstNode(id)
		return err
	case k < 45: // the first four nodes are hubs: parallel edges pile up between them
		src, tgt := h.nodes[h.rng.Intn(4)], pick()
		var props model.Properties
		if k%2 == 0 {
			props = model.Properties{"w": model.IntValue(int64(k))}
		}
		id, err := tx.CreateRel(src, tgt, "CITES", props)
		h.rels[id] = model.Rel{ID: id, Src: src, Tgt: tgt}
		h.deg[src]++
		h.deg[tgt]++
		firstRel(id)
		return err
	case k < 60:
		if id := pick(); firstNode(id) {
			return tx.SetNodeProps(id, model.Properties{"v": model.IntValue(int64(k))}, []string{"name"})
		}
	case k < 70:
		if id := pick(); firstNode(id) {
			return tx.SetNodeLabels(id, []string{historyLabels[k%4]}, []string{historyLabels[(k+1)%4]})
		}
	case k < 80 && len(h.rels) > 0:
		if r := h.relsInOrder()[h.rng.Intn(len(h.rels))]; firstRel(r.ID) {
			return tx.SetRelProps(r.ID, model.Properties{"w": model.IntValue(int64(k))}, nil)
		}
	case k < 88 && len(h.rels) > 0:
		r := h.relsInOrder()[h.rng.Intn(len(h.rels))]
		if !firstRel(r.ID) {
			return nil
		}
		live := tx.Rel(r.ID)
		h.gone = append(h.gone, model.AddRel(0, r.ID, live.Src, live.Tgt, live.Label, live.Props.Clone()))
		delete(h.rels, r.ID)
		h.deg[r.Src]--
		h.deg[r.Tgt]--
		return tx.DeleteRel(r.ID)
	case k < 94:
		for i, id := range h.nodes {
			if i >= 4 && h.deg[id] == 0 && firstNode(id) {
				live := tx.Node(id)
				h.gone = append(h.gone, model.AddNode(0, id, slices.Clone(live.Labels), live.Props.Clone()))
				h.nodes = slices.Delete(h.nodes, i, i+1)
				return tx.DeleteNode(id)
			}
		}
	case len(h.gone) > 0:
		u := h.gone[0]
		if !h.first(u.EntityKey()) {
			return nil
		}
		if u.Kind == model.OpAddNode {
			h.gone = h.gone[1:]
			h.nodes = append(h.nodes, u.NodeID)
			return tx.CreateNodeWithID(u.NodeID, u.AddLabels, u.SetProps)
		}
		if tx.Node(u.Src) != nil && tx.Node(u.Tgt) != nil {
			h.gone = h.gone[1:]
			h.rels[u.RelID] = model.Rel{ID: u.RelID, Src: u.Src, Tgt: u.Tgt}
			h.deg[u.Src]++
			h.deg[u.Tgt]++
			return tx.CreateRelWithID(u.RelID, u.Src, u.Tgt, u.RelLabel, u.SetProps)
		}
	}
	return nil
}

// relsInOrder lists the live relationships by id: map order must not reach
// the history.
func (h *historian) relsInOrder() []model.Rel {
	out := make([]model.Rel, 0, len(h.rels))
	for _, r := range h.rels {
		out = append(out, r)
	}
	slices.SortFunc(out, func(a, b model.Rel) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// run commits one transaction staged by h.
func (r *residentSys) run(h *historian) {
	r.t.Helper()
	if _, err := r.Host.Run(h.stage); err != nil {
		r.t.Error(err)
	}
}

// modelOf is the reference model of the first n commits r's host took.
func (r *residentSys) modelOf() (m *refmodel.Model, commits [][]model.Update) {
	r.mu.Lock()
	commits = r.commits
	r.mu.Unlock()
	m = &refmodel.Model{}
	for _, us := range commits {
		m.Apply(us...)
	}
	return m, commits
}

// exportDigest encodes a graph's export record by record, labels sorted (a
// delta element stores them so): equal digests are byte-identical exports.
func exportDigest(t *testing.T, codec *enc.Codec, us []model.Update) string {
	t.Helper()
	var b []byte
	for _, u := range us {
		u.AddLabels = slices.Clone(u.AddLabels) // the graph's own slice: entities are immutable
		u.Normalize()
		var err error
		if b, err = codec.AppendUpdate(append(b, '|'), u); err != nil {
			t.Fatal(err)
		}
	}
	return string(b)
}

// matchModel checks r's TimeStore against the model of every commit taken so
// far — more may be landing meanwhile: each policy snapshot the GraphStore
// holds, first, while it is still the graph the worker handed over; GetGraph
// at every commit timestamp; GetDiff over the whole history, a third of it,
// from every element on and two commits from every commit on, with GetWindow
// and the diff's hops over each of these, the two-commit ones from every third
// commit only; and the point and inverted windows at every fifth commit.
func (r *residentSys) matchModel(label string, codec *enc.Codec) {
	t := r.t
	t.Helper()
	if err := r.Aion.WaitSync(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	ts := r.Aion.TimeStore()
	ts.WaitSnapshots()
	m, commits := r.modelOf()
	last := model.Timestamp(len(commits))
	cached := 0
	for at := r.born + 1; at <= last; at++ {
		// Nothing has been read since the store opened, so whatever is cached
		// came from the snapshot worker (a seal removes the files, not these).
		if g, ok := ts.GraphStore().Get(at); ok {
			cached++
			if exportDigest(t, codec, g.Export()) != exportDigest(t, codec, m.Graph(at)) {
				t.Errorf("%s: the policy snapshot cached at %d differs from the model", label, at)
			}
		}
	}
	if cached == 0 {
		t.Errorf("%s: no policy snapshot of this process life is cached", label)
	}
	for at := model.Timestamp(1); at <= last; at++ {
		g, err := ts.GetGraph(at)
		if err != nil {
			t.Fatalf("%s: GetGraph(%d): %v", label, at, err)
		}
		if exportDigest(t, codec, g.Export()) != exportDigest(t, codec, m.Graph(at)) {
			t.Fatalf("%s: GetGraph(%d) differs from the model", label, at)
		}
	}
	// GetGraphs over the whole history: each step the graph at its timestamp.
	graphs, err := ts.GetGraphs(1, last, 1)
	if err != nil || len(graphs) != int(last) {
		t.Fatalf("%s: GetGraphs(1, %d, 1): %d graphs, %v", label, last, len(graphs), err)
	}
	for i, g := range graphs {
		if at := model.Timestamp(i + 1); exportDigest(t, codec, g.Export()) != exportDigest(t, codec, m.Graph(at)) {
			t.Fatalf("%s: GetGraphs' step at %d differs from the model", label, at)
		}
	}
	// GetDiff from every element's position on, and a window from every
	// commit — so from every fence — on.
	windows := [][2]model.Timestamp{{0, last + 1}, {last / 3, 2 * last / 3}}
	for _, e := range r.elements() {
		windows = append(windows, [2]model.Timestamp{e.at, last + 1}, [2]model.Timestamp{e.at + 1, last + 1})
	}
	for at := model.Timestamp(1); at <= last; at++ {
		windows = append(windows, [2]model.Timestamp{at, min(at+2, last+1)})
	}
	for _, w := range windows {
		us, err := ts.GetDiff(w[0], w[1])
		if err != nil {
			t.Fatalf("%s: GetDiff(%d, %d): %v", label, w[0], w[1], err)
		}
		if exportDigest(t, codec, us) != exportDigest(t, codec, m.Diff(w[0], w[1])) {
			t.Errorf("%s: GetDiff(%d, %d) differs from the model", label, w[0], w[1])
		}
		if w[1]-w[0] > 2 || w[0]%3 == 0 {
			r.matchWindow(label, codec, m, w[0], w[1], us)
		}
	}
	// The point window at a commit is its graph; the inverted one is empty.
	for at := model.Timestamp(1); at <= last; at += 5 {
		r.matchWindow(label, codec, m, at, at, nil)
		r.matchWindow(label, codec, m, at, at-1, nil)
	}
	if st := ts.Stats(); st.LatestMismatches != 0 || st.SnapshotErrors != 0 || st.CompactErrors != 0 {
		t.Errorf("%s: %d mismatches, %d snapshot errors (%s), %d compaction errors (%s)", label,
			st.LatestMismatches, st.SnapshotErrors, st.LastSnapshotError, st.CompactErrors, st.LastCompactError)
	}
}

// matchWindow checks GetWindow(a, b), and the hops of diff — the store's
// GetDiff(a, b) — against the model.
func (r *residentSys) matchWindow(label string, codec *enc.Codec, m *refmodel.Model, a, b model.Timestamp, diff []model.Update) {
	t := r.t
	t.Helper()
	w, err := r.Aion.TimeStore().GetWindow(a, b)
	if err != nil {
		t.Fatalf("%s: GetWindow(%d, %d): %v", label, a, b, err)
	}
	if exportDigest(t, codec, w.Export()) != exportDigest(t, codec, m.Window(a, b)) {
		t.Errorf("%s: GetWindow(%d, %d) differs from the model", label, a, b)
	}
	var want []algo.PathHop
	for _, rel := range m.ClosedRels(a, b) { // by arrival, then id
		want = append(want, algo.PathHop{Rel: rel.ID, From: rel.Src, To: rel.Tgt, Departure: rel.Valid.Start, Arrival: rel.Valid.End})
	}
	hops := algo.Hops(diff)
	slices.SortFunc(hops, func(x, y algo.PathHop) int {
		return cmp.Or(cmp.Compare(x.Arrival, y.Arrival), cmp.Compare(x.Rel, y.Rel))
	})
	if !slices.Equal(hops, want) {
		t.Errorf("%s: the hops of GetDiff(%d, %d) are not the model's closed relationship versions", label, a, b)
	}
}

// elements lists every .dsnap element on disk, all segments, in stream order.
func (r *residentSys) elements() []chainElement {
	var out []chainElement
	for n := 1; ; n++ {
		dir := fmt.Sprintf("sys/aion/timestore/p-%d", n)
		if _, err := r.fs.Stat(filepath.Join(dir, "updates.log")); err != nil {
			return out
		}
		out = append(out, r.chainElementsIn(dir)...)
	}
}

// decodeFiles reads every file of the closed store r's TimeStore back with
// nothing but the frame layout, the delta header, the block codec and the
// update codec. Each element — a full from an empty graph, a delta on the
// graph of the element before it, which must be the base it names — must hold
// the model's graph at its position. Each segment log — its marker, then one
// frame per commit — must hold, segment after segment, the whole history.
func (r *residentSys) decodeFiles(label string, digests *enc.Codec) {
	t := r.t
	t.Helper()
	m, commits := r.modelOf()
	strs, err := strstore.OpenFS(r.fs, "sys/aion/strings.db")
	if err != nil {
		t.Fatal(err)
	}
	defer strs.Close()
	codec := enc.NewCodec(strs)
	blocks := func(path string, frames [][]byte) []model.Update {
		t.Helper()
		var us []model.Update
		for _, f := range frames {
			if us, err = codec.DecodeBlock(us, f); err != nil {
				t.Fatalf("%s: %s: %v", label, path, err)
			}
		}
		return us
	}
	var logged []model.Update
	for n := 1; ; n++ {
		path := fmt.Sprintf("sys/aion/timestore/p-%d/updates.log", n)
		if _, err := r.fs.Stat(path); err != nil {
			break
		}
		frames := readFrames(t, r.fs, path)
		if string(frames[0]) != "ATL2" {
			t.Fatalf("%s: %s opens with %q, not the format marker", label, path, frames[0])
		}
		for _, f := range frames[1:] {
			us := blocks(path, [][]byte{f})
			if at := us[0].TS; at < 1 || int(at) > len(commits) || len(us) != len(commits[at-1]) ||
				slices.ContainsFunc(us, func(u model.Update) bool { return u.TS != at }) {
				t.Fatalf("%s: %s holds a frame of %d records from %d on that is not one whole commit", label, path, len(us), at)
			}
			logged = append(logged, us...)
		}
	}
	if exportDigest(t, digests, logged) != exportDigest(t, digests, m.Diff(0, model.Timestamp(len(commits))+1)) {
		t.Errorf("%s: the segment logs hold another history than the model's", label)
	}
	var g *memgraph.Graph
	var prev enc.DeltaHeader
	fulls, deltas := 0, 0
	for _, e := range r.elements() {
		frames := readFrames(t, r.fs, e.name)
		hdr, err := enc.DecodeDeltaHeader(frames[0])
		us := blocks(e.name, frames[1:])
		if err != nil || hdr.TS != e.at || int(hdr.Seq) != e.seq || int(hdr.Count) != len(us) {
			t.Fatalf("%s: %s: header %+v, %d records: %v", label, e.name, hdr, len(us), err)
		}
		// Every element is complete at its timestamp: the last update of a
		// commit, or the state before all history.
		if hdr.TS != -1 && (hdr.TS < 1 || int(hdr.TS) > len(commits) || int(hdr.Seq) != len(commits[hdr.TS-1])-1) {
			t.Errorf("%s: %s is not placed at the end of a commit", label, e.name)
			continue
		}
		if hdr.Kind == enc.DeltaFull {
			g, fulls = memgraph.New(), fulls+1
		} else if deltas++; g == nil || hdr.BaseTS != prev.TS || hdr.BaseSeq != prev.Seq {
			t.Fatalf("%s: %s is a delta on (%d, %d), the element before it is at (%d, %d)", label, e.name, hdr.BaseTS, hdr.BaseSeq, prev.TS, prev.Seq)
		}
		if err := g.ApplyAll(us); err != nil {
			t.Fatalf("%s: %s: %v", label, e.name, err)
		}
		g.SetTimestamp(hdr.TS)
		if exportDigest(t, digests, g.Export()) != exportDigest(t, digests, m.Graph(hdr.TS)) {
			t.Errorf("%s: %s decodes to another graph than the model's at %d", label, e.name, hdr.TS)
		}
		prev = hdr
	}
	if fulls < 3 || deltas < 3 {
		t.Errorf("%s: %d fulls and %d deltas on disk: the history is too short to check both", label, fulls, deltas)
	}
}

// readFrames splits a frame file — [len u32 | crc u32 | payload]*, an element
// or a segment log — into its checked payloads.
func readFrames(t *testing.T, fs vfs.FS, path string) (frames [][]byte) {
	t.Helper()
	f, err := fs.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	size, err := fs.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, size)
	if _, err := f.ReadAt(b, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	for len(b) > 0 {
		if len(b) < 8 || int(binary.LittleEndian.Uint32(b)) > len(b)-8 {
			t.Fatalf("%s: torn frame", path)
		}
		n := int(binary.LittleEndian.Uint32(b))
		if crc32.ChecksumIEEE(b[8:8+n]) != binary.LittleEndian.Uint32(b[4:]) {
			t.Fatalf("%s: frame checksum", path)
		}
		frames, b = append(frames, b[8:8+n]), b[8+n:]
	}
	if len(frames) == 0 {
		t.Fatalf("%s: no first frame", path)
	}
	return frames
}

func TestHostedGraphsMatchTheReferenceModel(t *testing.T) {
	const seal = 900 // updates a segment; the history is a little over two of them
	p := &residentSys{t: t, fs: vfs.NewFaultFS(), seal: seal}
	f := &residentSys{t: t, fs: vfs.NewFaultFS(), seal: seal, replica: true}
	p.open()
	f.open()
	defer func() { p.Close(); f.Close() }()
	digests := enc.NewCodec(strstore.NewMem())

	ship := shipper(t, p, f)

	// Single commits: every commit its own round.
	h := newHistorian(1)
	for i := 0; i < 150; i++ {
		p.run(h)
		if i%13 == 0 {
			ship()
		}
	}
	// Group-commit rounds: four committers at once, each on its own entities.
	var wg sync.WaitGroup
	for w := int64(0); w < 4; w++ {
		wg.Add(1)
		go func(h *historian) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				p.run(h)
			}
		}(newHistorian(10 + w))
	}
	wg.Wait()
	ship()
	p.matchModel("primary after the rounds", digests)

	// A crash the TimeStore's log lags the host's through: the reopened store
	// has no graph where its log ends until reconcile has fed it the rest.
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		p.run(h)
	}
	lagged := p.Aion.LatestTimestamp()
	p.fs.Crash()
	_ = p.Close()
	p.open()
	if got := p.Aion.LatestTimestamp(); got != lagged || p.Host.Clock() != lagged {
		t.Fatalf("after the crash and reconcile aion is at %d, the host at %d; %d commits were acknowledged", got, p.Host.Clock(), lagged)
	}

	// On through the second seal, then the checks while a committer writes.
	for i := 0; p.Aion.TimeStore().Stats().SealedPartitions < 2; i++ {
		if i > 2000 {
			t.Fatal("no second seal in 2000 commits")
		}
		p.run(h)
		if i%17 == 0 {
			ship()
		}
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		late := newHistorian(99)
		for i := 0; i < 150; i++ { // bounded: the model is quadratic in the history
			select {
			case <-stop:
				return
			default:
				p.run(late)
			}
		}
	}()
	p.matchModel("primary, a committer writing", digests)
	close(stop)
	<-done
	ship()
	f.matchModel("follower", digests)
	if fs, ps := f.Aion.TimeStore().Stats(), p.Aion.TimeStore().Stats(); fs.SealedPartitions < 2 || fs.Updates != ps.Updates {
		t.Errorf("follower: %d sealed segments over %d updates, the primary holds %d", fs.SealedPartitions, fs.Updates, ps.Updates)
	}

	for _, r := range []*residentSys{p, f} {
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
	p.decodeFiles("primary", digests)
	f.decodeFiles("follower", digests)
}
