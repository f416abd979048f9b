package memgraph

// Copy-on-write by the chunk, held to the reference model: however clones are
// taken, written and shared, every handle reads exactly the graph of its own
// timestamp.

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"aion/internal/enc"
	"aion/internal/model"
	"aion/internal/refmodel"
	"aion/internal/strstore"
)

// cowFarNode is a node id far past the chunks the other ids fill.
const cowFarNode = 5000

// cowHistory is a seeded update stream, one update per timestamp, over node
// ids 0–519 — three chunks, 255/256/257 among them — and cowFarNode. Nodes are
// created in random order, deleted and created again under their id; chunk 1
// (256–511) is emptied by deletes a third of the way in and refilled two
// thirds of the way in; labels and properties are edited; relationships are
// added between endpoints that already share one (multi-edges), deleted, and
// created again under their id between their old endpoints.
func cowHistory(seed int64, steps int) []model.Update {
	type rel struct{ src, tgt model.NodeID }
	rng := rand.New(rand.NewSource(seed))
	var us []model.Update
	ts := model.Timestamp(0)
	emit := func(u model.Update) { us = append(us, u) }
	next := func() model.Timestamp { ts++; return ts }

	pool := make([]model.NodeID, 0, 521)
	for id := model.NodeID(0); id < 520; id++ {
		pool = append(pool, id)
	}
	pool = append(pool, cowFarNode)
	live := map[model.NodeID]bool{}
	liveRels, deadRels := map[model.RelID]rel{}, map[model.RelID]rel{}
	var nextRel model.RelID
	addNode := func(id model.NodeID) {
		emit(model.AddNode(next(), id, [][]string{nil, {"A"}, {"A", "B"}}[id%3], model.Properties{"p": model.IntValue(int64(id % 2))}))
		live[id] = true
	}
	addRel := func(id model.RelID, r rel) {
		emit(model.AddRel(next(), id, r.src, r.tgt, "R", model.Properties{"w": model.IntValue(int64(rng.Intn(3)))}))
		liveRels[id] = r
		delete(deadRels, id)
	}
	delRel := func(id model.RelID) {
		r := liveRels[id]
		emit(model.DeleteRel(next(), id, r.src, r.tgt))
		delete(liveRels, id)
		deadRels[id] = r
	}
	delNode := func(id model.NodeID) {
		for _, rid := range sortedRelIDs(liveRels) {
			if r := liveRels[rid]; r.src == id || r.tgt == id {
				delRel(rid)
			}
		}
		emit(model.DeleteNode(next(), id))
		delete(live, id)
	}
	// anyNode and anyRel draw by the seeded generator, whatever the map order.
	anyNode := func(want bool) (model.NodeID, bool) {
		var ids []model.NodeID
		for _, id := range pool {
			if live[id] == want {
				ids = append(ids, id)
			}
		}
		if len(ids) == 0 {
			return 0, false
		}
		return ids[rng.Intn(len(ids))], true
	}
	anyRel := func(rels map[model.RelID]rel) (model.RelID, bool) {
		ids := sortedRelIDs(rels)
		if len(ids) == 0 {
			return 0, false
		}
		return ids[rng.Intn(len(ids))], true
	}

	for _, i := range rng.Perm(len(pool)) {
		addNode(pool[i])
	}
	for step := 0; step < steps; step++ {
		switch {
		case step == steps/3:
			for id := model.NodeID(256); id < 512; id++ {
				if live[id] {
					delNode(id)
				}
			}
			continue
		case step == 2*steps/3:
			for _, i := range rng.Perm(256) {
				if id := model.NodeID(256 + i); !live[id] {
					addNode(id)
				}
			}
			continue
		}
		switch k := rng.Intn(100); {
		case k < 30:
			if id, ok := anyRel(deadRels); ok && rng.Intn(4) == 0 && live[deadRels[id].src] && live[deadRels[id].tgt] {
				addRel(id, deadRels[id])
				continue
			}
			r := rel{}
			if id, ok := anyRel(liveRels); ok && rng.Intn(3) == 0 {
				r = liveRels[id] // a second edge between the same endpoints
			} else {
				r.src, _ = anyNode(true)
				r.tgt, _ = anyNode(true)
			}
			addRel(nextRel, r)
			nextRel++
		case k < 42:
			id, _ := anyNode(true)
			if rng.Intn(4) == 0 {
				emit(model.UpdateNode(next(), id, nil, nil, nil, []string{"p"}))
			} else {
				emit(model.UpdateNode(next(), id, nil, nil, model.Properties{"p": model.IntValue(int64(rng.Intn(3)))}, nil))
			}
		case k < 52:
			id, _ := anyNode(true)
			l := []string{[]string{"A", "B", "C"}[rng.Intn(3)]}
			if rng.Intn(2) == 0 {
				emit(model.UpdateNode(next(), id, l, nil, nil, nil))
			} else {
				emit(model.UpdateNode(next(), id, nil, l, nil, nil))
			}
		case k < 60:
			if id, ok := anyRel(liveRels); ok {
				r := liveRels[id]
				emit(model.UpdateRel(next(), id, r.src, r.tgt, model.Properties{"w": model.IntValue(int64(rng.Intn(3)))}, nil))
			}
		case k < 84:
			if id, ok := anyRel(liveRels); ok {
				delRel(id)
			}
		case k < 92:
			if id, ok := anyNode(true); ok && len(live) > 8 {
				delNode(id)
			}
		default:
			if id, ok := anyNode(false); ok {
				addNode(id)
			}
		}
	}
	return us
}

func sortedRelIDs[V any](m map[model.RelID]V) []model.RelID {
	ids := make([]model.RelID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// cowHandle is one graph under test: it has applied us[:next] and goes on
// applying in step with the parent until it has applied us[:stop].
type cowHandle struct {
	g          *Graph
	next, stop int
}

func TestCopyOnWriteMatchesTheReferenceModel(t *testing.T) {
	const seed, steps = 31, 1500
	us := cowHistory(seed, steps)
	var m refmodel.Model
	m.Apply(us...)
	rng := rand.New(rand.NewSource(seed))

	// The parent is cloned throughout by a second goroutine, as the host's
	// graph is by its readers: under the read side of the lock its writer holds
	// exclusively. Each of those clones is written too, a few updates on, and
	// kept.
	var mu sync.RWMutex
	var stop atomic.Bool
	parent, done := New(), make(chan []cowHandle, 1)
	defer stop.Store(true)
	go func() {
		var kept []cowHandle
		for n := 0; !stop.Load(); n++ {
			mu.RLock()
			c := parent.Clone()
			mu.RUnlock()
			if n%64 != 0 || len(kept) == 8 {
				continue
			}
			at := int(c.Timestamp()) // one update a timestamp: c has applied us[:at]
			to := min(at+1+n%5, len(us))
			for _, u := range us[at:to] {
				if err := c.Apply(u); err != nil {
					t.Errorf("the concurrent clone at %d: %v", at, err)
				}
			}
			kept = append(kept, cowHandle{g: c, next: to, stop: to})
		}
		done <- kept
	}()

	handles := []cowHandle{{g: parent, stop: len(us)}}
	for i, u := range us {
		for h := range handles {
			if hd := &handles[h]; hd.next == i && i < hd.stop {
				if h == 0 {
					mu.Lock()
				}
				err := hd.g.Apply(u)
				if h == 0 {
					mu.Unlock()
				}
				if err != nil {
					t.Fatalf("update %d (%v): %v", i, u, err)
				}
				hd.next++
			}
		}
		// A clone of any handle that is in step, written for a while or never.
		if rng.Intn(60) == 0 {
			src := handles[rng.Intn(len(handles))]
			if src.next == i+1 {
				mu.RLock()
				c := src.g.Clone()
				mu.RUnlock()
				handles = append(handles, cowHandle{g: c, next: i + 1, stop: i + 1 + rng.Intn(len(us)-i)})
			}
		}
		// Halfway: a graph loaded from the full of a few commits ago beside a
		// handle on the parent, which goes on writing.
		if i == len(us)/2 {
			mu.RLock()
			ref := parent.Clone()
			mu.RUnlock()
			from := i - 3
			loaded := New()
			for _, f := range m.Graph(us[from].TS) {
				if _, err := loaded.ApplyShared(f, ref); err != nil {
					t.Fatal(err)
				}
			}
			loaded.ShareChunks(ref)
			if sharedChunks(loaded, ref) == 0 {
				t.Fatal("the loaded graph adopted none of the reference's chunks: the case exercises nothing")
			}
			for _, u := range us[from+1 : i+1] {
				mustApply(t, loaded, u)
			}
			handles = append(handles, cowHandle{g: ref, next: i + 1, stop: i + 1}, cowHandle{g: loaded, next: i + 1, stop: len(us)})
		}
	}
	stop.Store(true)
	handles = append(handles, <-done...)
	if len(handles) < 20 {
		t.Fatalf("%d handles; the history clones too rarely to test anything", len(handles))
	}

	codec := enc.NewCodec(strstore.NewMem())
	graphs := map[model.Timestamp]string{}
	for _, h := range handles {
		ts := h.g.Timestamp()
		want, ok := graphs[ts]
		if !ok {
			want = updateBytes(t, codec, m.Graph(ts))
			graphs[ts] = want
		}
		if exportBytes(t, codec, h.g) != want {
			t.Fatalf("the handle at %d (one of %d) exports another graph than the model's", ts, len(handles))
		}
		wantAdjacency(t, &m, h.g)
	}
}

// wantAdjacency checks g's adjacency lists at its timestamp against the
// model's GetRelationships, as multisets: every node that is an endpoint in
// the model is asked, and every other node must have none.
func wantAdjacency(t *testing.T, m *refmodel.Model, g *Graph) {
	t.Helper()
	ts := g.Timestamp()
	ends := map[model.NodeID]bool{}
	for _, u := range m.Graph(ts) {
		if u.Kind == model.OpAddRel {
			ends[u.Src], ends[u.Tgt] = true, true
		}
	}
	for id := model.NodeID(0); id < g.MaxNodeID(); id++ {
		if !ends[id] {
			if len(g.Out(id))+len(g.In(id)) > 0 {
				t.Fatalf("at %d node %d has relationships %v / %v, the model none", ts, id, g.Out(id), g.In(id))
			}
			continue
		}
		for _, d := range []model.Direction{model.Outgoing, model.Incoming} {
			var want []model.RelID
			for _, vs := range m.GetRelationships(id, d, ts, ts) {
				want = append(want, vs[0].ID)
			}
			got := g.Out(id)
			if d == model.Incoming {
				got = g.In(id)
			}
			got = slices.Clone(got)
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("at %d node %d's relationships (direction %v) are %v, the model's %v", ts, id, d, got, want)
			}
		}
	}
}
