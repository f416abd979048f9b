package system

// The TimeStore half of the one oracle: a hosted TimeStore keeps no graph of
// its own, so every graph it hands out — materialised, cached from a policy
// snapshot, or persisted in a .dsnap element — is checked here against
// internal/testkit/refmodel's replay from zero, on a history that goes
// through every way commits reach it.

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"aion/internal/algo"
	"aion/internal/enc"
	"aion/internal/hostdb"
	"aion/internal/memgraph"
	"aion/internal/model"
	"aion/internal/strstore"
	"aion/internal/testkit/refmodel"
	"aion/internal/testkit/vfstest"
	"aion/internal/vfs"
	"aion/internal/wal"
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
	// touched holds the entities the transaction being staged has changed, to
	// change each at most once — but when twice is set, a third of the
	// transactions end with a second change of an entity they created or
	// updated: staged lists those.
	touched map[int64]bool
	twice   bool
	staged  []model.Update
}

func newHistorian(seed int64) *historian {
	return &historian{rng: rand.New(rand.NewSource(seed)), rels: map[model.RelID]model.Rel{}, deg: map[model.NodeID]int{}}
}

var historyLabels = []string{"Person", "Author", "Venue", "Draft"}

// stage puts one to five operations into tx: creations, multi-edges between
// a few hub nodes, property and label edits, deletions, and re-creations of
// deleted entities under their old id with equal content.
func (h *historian) stage(tx *hostdb.Tx) error {
	h.touched, h.staged = map[int64]bool{}, h.staged[:0]
	for n := 1 + h.rng.Intn(5); n > 0; n-- {
		k := h.rng.Intn(100)
		if err := h.op(tx, k); err != nil {
			return err
		}
	}
	if !h.twice || len(h.staged) == 0 || h.rng.Intn(3) != 0 {
		return nil
	}
	// A node created or updated, updated again; a relationship created, then
	// updated or deleted.
	switch u := h.staged[h.rng.Intn(len(h.staged))]; {
	case u.Kind.IsNodeOp():
		return tx.SetNodeProps(u.NodeID, model.Properties{"again": model.IntValue(int64(u.Kind))}, []string{"v"})
	case h.rng.Intn(2) == 0:
		return tx.SetRelProps(u.RelID, model.Properties{"again": model.BoolValue(true)}, []string{"w"})
	default:
		r := h.rels[u.RelID]
		delete(h.rels, r.ID)
		h.deg[r.Src]--
		h.deg[r.Tgt]--
		return tx.DeleteRel(r.ID)
	}
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
		h.staged = append(h.staged, model.AddNode(0, id, nil, nil))
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
		h.staged = append(h.staged, model.AddRel(0, id, src, tgt, "", nil))
		return err
	case k < 60:
		if id := pick(); firstNode(id) {
			h.staged = append(h.staged, model.UpdateNode(0, id, nil, nil, nil, nil))
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
		u = refmodel.Normalize(u) // sorted copies: the graph's own slices are immutable
		var err error
		if b, err = codec.AppendUpdate(append(b, '|'), u); err != nil {
			t.Fatal(err)
		}
	}
	return string(b)
}

// matchModel checks r's TimeStore against the model of every commit taken so
// far — more may be landing meanwhile: that nothing is cached before the first
// read (wantNothingCached); GetGraph at every commit timestamp, which loads
// each policy element; GetDiff over the whole history, a third of it,
// from every element on and two commits from every commit on, with GetWindow
// and the diff's hops over each of these, the two-commit ones from every third
// commit only; and the point and inverted windows at every fifth commit.
func (r *residentSys) matchModel(label string, codec *enc.Codec) {
	ctx := context.Background()
	t := r.t
	t.Helper()
	if err := r.Aion.WaitSync(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	ts := r.Aion.TimeStore()
	r.wantNothingCached(label)
	m, commits := r.modelOf()
	last := model.Timestamp(len(commits))
	for at := model.Timestamp(1); at <= last; at++ {
		g, err := ts.GetGraphContext(ctx, at)
		if err != nil {
			t.Fatalf("%s: GetGraph(%d): %v", label, at, err)
		}
		if exportDigest(t, codec, g.Export()) != exportDigest(t, codec, m.Graph(at)) {
			t.Fatalf("%s: GetGraph(%d) differs from the model", label, at)
		}
	}
	// GetGraphs over the whole history: each step the graph at its timestamp.
	graphs, err := r.Aion.GetGraphContext(ctx, 1, last, 1)
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
	for _, e := range r.chainElements() {
		// With a committer writing, the snapshot at last can be placed (the next
		// commit opens its position) after the model was taken: a window from
		// e.at+1 would then start past the model's history.
		if e.at < last {
			windows = append(windows, [2]model.Timestamp{e.at, last + 1}, [2]model.Timestamp{e.at + 1, last + 1})
		}
	}
	for at := model.Timestamp(1); at <= last; at++ {
		windows = append(windows, [2]model.Timestamp{at, min(at+2, last+1)})
	}
	for _, w := range windows {
		us, err := ts.GetDiffContext(context.Background(), w[0], w[1])
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
	r.matchEntities(label, m, last)
	if st := ts.Stats(); st.LatestMismatches != 0 || st.SnapshotErrors != 0 {
		t.Errorf("%s: %d mismatches, %d snapshot errors (%s)", label,
			st.LatestMismatches, st.SnapshotErrors, st.LastSnapshotError)
	}
}

// matchWindow checks GetWindow(a, b), and the hops of diff — the store's
// GetDiff(a, b) — against the model.
func (r *residentSys) matchWindow(label string, codec *enc.Codec, m *refmodel.Model, a, b model.Timestamp, diff []model.Update) {
	t := r.t
	t.Helper()
	w, err := r.Aion.TimeStore().GetWindowContext(context.Background(), a, b)
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

// matchEntities checks r's LineageStore against the model of the commits
// through last: every entity's versions over the whole history and at last. A
// version that ends after last ends in a commit the model has not seen yet, so
// both sides' are left open.
func (r *residentSys) matchEntities(label string, m *refmodel.Model, last model.Timestamp) {
	ctx := context.Background()
	t := r.t
	t.Helper()
	ls := r.Aion.LineageStore()
	open := func(v *model.Interval) {
		if v.End > last {
			v.End = model.TSInfinity
		}
	}
	nodes, rels := map[model.NodeID]bool{}, map[model.RelID]bool{}
	for _, u := range m.Diff(0, last+1) {
		if u.Kind.IsNodeOp() {
			nodes[u.NodeID] = true
		} else {
			rels[u.RelID] = true
		}
	}
	for _, at := range [][2]model.Timestamp{{0, last + 1}, {last, last}} {
		for id := range nodes {
			got, err := ls.GetNodeContext(ctx, id, at[0], at[1])
			for _, n := range got {
				open(&n.Valid)
			}
			if want := m.GetNode(id, at[0], at[1]); err != nil || !refmodel.SameNodes(got, want) {
				t.Fatalf("%s: GetNode(%d, %d, %d) = %s (%v), the model says %s", label, id, at[0], at[1], refmodel.ShowNodes(got), err, refmodel.ShowNodes(want))
			}
		}
		for id := range rels {
			got, err := ls.GetRelationshipContext(ctx, id, at[0], at[1])
			for _, r := range got {
				open(&r.Valid)
			}
			if want := m.GetRelationship(id, at[0], at[1]); err != nil || !refmodel.SameRels(got, want) {
				t.Fatalf("%s: GetRelationship(%d, %d, %d) = %s (%v), the model says %s", label, id, at[0], at[1], refmodel.ShowRels(got), err, refmodel.ShowRels(want))
			}
		}
	}
}

// decodeFiles reads every file of the closed store r's TimeStore back with
// nothing but the frame layout, the delta header, the block codec and the
// update codec. The log — its marker, then one frame per commit — must hold
// the whole history. Each full, from an empty graph, must hold the model's
// graph at its position. Each delta must be its header alone, naming the
// element before it as its base; its window — the log's frames from the
// base's logOff to its own — must hold Count records, and the model's graph at
// the base with the window applied must be the model's graph at its position.
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
	path := "sys/aion/timestore/p-1/updates.log"
	logFrames := readFrames(t, r.fs, path)
	if string(logFrames[0]) != "ATL3" {
		t.Fatalf("%s: %s opens with %q, not the format marker", label, path, logFrames[0])
	}
	// Frame i of the log starts at offs[i]; offs[len(logFrames)] is its end.
	offs := make([]int64, len(logFrames)+1)
	for i, f := range logFrames {
		offs[i+1] = offs[i] + 8 + int64(len(f))
	}
	for _, f := range logFrames[1:] {
		us := blocks(path, [][]byte{f})
		if at := us[0].TS; at < 1 || int(at) > len(commits) || len(us) != len(commits[at-1]) ||
			slices.ContainsFunc(us, func(u model.Update) bool { return u.TS != at }) {
			t.Fatalf("%s: %s holds a frame of %d records from %d on that is not one whole commit", label, path, len(us), at)
		}
		logged = append(logged, us...)
	}
	if exportDigest(t, digests, logged) != exportDigest(t, digests, m.Diff(0, model.Timestamp(len(commits))+1)) {
		t.Errorf("%s: the log holds another history than the model's", label)
	}
	var prev enc.DeltaHeader
	fulls, deltas := 0, 0
	for _, e := range r.chainElements() {
		frames := readFrames(t, r.fs, e.name)
		hdr, err := enc.DecodeDeltaHeader(frames[0])
		if err != nil || hdr.TS != e.at || int(hdr.Seq) != e.seq {
			t.Fatalf("%s: %s: header %+v: %v", label, e.name, hdr, err)
		}
		// Every element is complete at its timestamp: the last update of a
		// commit, or the state before all history.
		if hdr.TS != -1 && (hdr.TS < 1 || int(hdr.TS) > len(commits) || int(hdr.Seq) != len(commits[hdr.TS-1])-1) {
			t.Errorf("%s: %s is not placed at the end of a commit", label, e.name)
			continue
		}
		g := memgraph.New()
		var us []model.Update
		if hdr.Kind == enc.DeltaFull {
			fulls++
			us = blocks(e.name, frames[1:])
		} else {
			deltas++
			if fulls == 0 || hdr.BaseTS != prev.TS || hdr.BaseSeq != prev.Seq {
				t.Fatalf("%s: %s is a delta on (%d, %d), the element before it is at (%d, %d)", label, e.name, hdr.BaseTS, hdr.BaseSeq, prev.TS, prev.Seq)
			}
			lo, hi := slices.Index(offs, prev.LogOff), slices.Index(offs, hdr.LogOff)
			if len(frames) != 1 || lo < 1 || hi < lo {
				t.Fatalf("%s: %s holds %d frames and names the window [%d, %d), not its header alone and a window of the log's frames", label, e.name, len(frames), prev.LogOff, hdr.LogOff)
			}
			if err := g.ApplyAll(m.Graph(prev.TS)); err != nil {
				t.Fatalf("%s: the model's graph at %d: %v", label, prev.TS, err)
			}
			us = blocks(path, logFrames[lo:hi])
		}
		if int(hdr.Count) != len(us) {
			t.Errorf("%s: %s counts %d records, its records are %d", label, e.name, hdr.Count, len(us))
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

// readFrames splits a frame file — wal records, an element or a segment log —
// into its checked payloads.
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
		payload, rest, err := wal.Cut(b)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		frames, b = append(frames, payload), rest
	}
	if len(frames) == 0 {
		t.Fatalf("%s: no first frame", path)
	}
	return frames
}

func TestHostedGraphsMatchTheReferenceModel(t *testing.T) {
	p := &residentSys{t: t, fs: vfstest.NewFaultFS()}
	f := &residentSys{t: t, fs: vfstest.NewFaultFS(), replica: true}
	p.open()
	f.open()
	defer func() { p.Close(); f.Close() }()
	digests := enc.NewCodec(strstore.NewMem())

	ship := shipper(t, p, f)

	// Single commits: every commit its own round.
	h := newHistorian(1)
	h.twice = true
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
			h.twice = true
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

	// On through a few more policy intervals, then the checks while a
	// committer writes.
	for i := 0; i < 180; i++ {
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
	if fs, ps := f.Aion.TimeStore().Stats(), p.Aion.TimeStore().Stats(); fs.Updates != ps.Updates {
		t.Errorf("follower: %d updates, the primary holds %d", fs.Updates, ps.Updates)
	}

	for _, r := range []*residentSys{p, f} {
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
	p.decodeFiles("primary", digests)
	f.decodeFiles("follower", digests)
}
