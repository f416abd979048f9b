package hostdb

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"aion/internal/aion"
	"aion/internal/memgraph"
	"aion/internal/model"
	"aion/internal/testkit/refmodel"
	"aion/internal/testkit/vfstest"
	"aion/internal/vfs"
)

// stageUpdate stages one update of a refmodel.History through the
// transaction API.
func stageUpdate(tx *Tx, u model.Update) error {
	switch u.Kind {
	case model.OpAddNode:
		return tx.CreateNodeWithID(u.NodeID, u.AddLabels, u.SetProps)
	case model.OpUpdateNode:
		if len(u.AddLabels)+len(u.DelLabels) > 0 {
			if err := tx.SetNodeLabels(u.NodeID, u.AddLabels, u.DelLabels); err != nil {
				return err
			}
		}
		return tx.SetNodeProps(u.NodeID, u.SetProps, u.DelProps)
	case model.OpDeleteNode:
		return tx.DeleteNode(u.NodeID)
	case model.OpAddRel:
		return tx.CreateRelWithID(u.RelID, u.Src, u.Tgt, u.RelLabel, u.SetProps)
	case model.OpUpdateRel:
		return tx.SetRelProps(u.RelID, u.SetProps, u.DelProps)
	default:
		return tx.DeleteRel(u.RelID)
	}
}

// spoil stages, on the entity u changes, the write that u makes fail: the
// creation of what u creates, an update of what u deletes. It fails where the
// write fails already, on the committed graph g, or where u leaves nothing to
// spoil.
func spoil(tx *Tx, g *memgraph.Graph, u model.Update) error {
	touch := model.Properties{"doomed": model.BoolValue(true)}
	switch u.Kind {
	case model.OpAddNode:
		return tx.CreateNodeWithID(u.NodeID, nil, nil)
	case model.OpDeleteNode:
		return tx.SetNodeProps(u.NodeID, touch, nil)
	case model.OpAddRel:
		if g.Node(u.Src) == nil || g.Node(u.Tgt) == nil {
			return model.ErrDangling
		}
		return tx.CreateRelWithID(u.RelID, u.Src, u.Tgt, "R", nil)
	case model.OpDeleteRel:
		return tx.SetRelProps(u.RelID, touch, nil)
	}
	return model.ErrExists // an update conflicts with nothing
}

// doomed is a transaction that the winner of its round, committed ahead of
// it, makes abort.
type doomed struct {
	kind string
	tx   *Tx
	err  chan error
}

// doom stages, against the committed graph g, the transactions that the
// commit us — queued ahead of them — makes abort: one written against the
// state us then changes, three that create, update or delete an entity us
// leaves alone before they write what us spoils, and one that deletes a node
// us gives a relationship, after deleting the relationships it had.
func doom(db *DB, g *memgraph.Graph, us []model.Update, round int) []doomed {
	touched := map[int64]bool{}
	for _, u := range us {
		touched[u.EntityKey()] = true
	}
	var live []model.NodeID
	g.ForEachNode(func(n *model.Node) bool {
		if !touched[int64(n.ID)<<1] {
			live = append(live, n.ID)
		}
		return true
	})
	var rels []model.RelID
	g.ForEachRel(func(r *model.Rel) bool {
		if !touched[int64(r.ID)<<1|1] {
			rels = append(rels, r.ID)
		}
		return true
	})
	dropped := map[model.RelID]bool{} // created by us and deleted again: nothing to spoil or give
	for _, u := range us {
		dropped[u.RelID] = dropped[u.RelID] || u.Kind == model.OpDeleteRel
	}
	var out []doomed
	// try stages prefix and then spoils the first update of us, from the
	// round's offset on, that can be spoiled.
	try := func(kind string, prefix func(tx *Tx) error) {
		for i := range us {
			if u := us[(round+i)%len(us)]; u.Kind == model.OpAddRel && dropped[u.RelID] {
				continue
			}
			tx := db.Begin()
			if prefix(tx) == nil && spoil(tx, g, us[(round+i)%len(us)]) == nil {
				out = append(out, doomed{kind: kind, tx: tx})
				return
			}
			tx.Rollback()
		}
	}
	none := func(*Tx) error { return nil }
	try("stale", none)
	try("creating prefix", func(tx *Tx) error { return tx.CreateNodeWithID(model.NodeID(1<<20+round), []string{"Doomed"}, nil) })
	if len(live) > 0 {
		n := live[round%len(live)]
		try("updating prefix", func(tx *Tx) error { return tx.SetNodeProps(n, model.Properties{"doomed": model.IntValue(1)}, nil) })
	}
	if len(rels) > 0 {
		r := rels[round%len(rels)]
		try("deleting prefix", func(tx *Tx) error { return tx.DeleteRel(r) })
	}
	for _, u := range us {
		if u.Kind != model.OpAddRel || dropped[u.RelID] || g.Node(u.Src) == nil {
			continue
		}
		tx := db.Begin()
		ok := true
		incident := map[model.RelID]bool{}
		for _, r := range slices.Concat(g.Out(u.Src), g.In(u.Src)) {
			if !incident[r] {
				incident[r] = true
				ok = ok && tx.DeleteRel(r) == nil
			}
		}
		if ok && tx.DeleteNode(u.Src) == nil {
			out = append(out, doomed{kind: "has rels", tx: tx})
			break
		}
		tx.Rollback()
	}
	return out
}

// TestConcurrentAbortsMatchTheReferenceModel commits a seeded
// refmodel.History through Tx, a transaction per commit, and races each
// commit against transactions it dooms, each committed from a goroutine of
// its own into the same group-commit round: see doom. A listener holds every
// round's leader until the next round is queued, so every doomed transaction
// is queued behind its winner and the whole round commits as one batch. After
// every round the host's graph is the model's at the host's clock, and every
// doomed transaction aborted and counted as a conflict.
func TestConcurrentAbortsMatchTheReferenceModel(t *testing.T) {
	db, err := Open(Options{FS: vfstest.NewFaultFS(), SyncCommits: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	applied, release, stop := make(chan model.Timestamp), make(chan struct{}), make(chan struct{})
	t.Cleanup(func() { close(stop) }) // frees a held leader when the test fails
	db.OnCommit(func(ts model.Timestamp, _ []model.Update) {
		select {
		case applied <- ts:
			select {
			case <-release:
			case <-stop:
			}
		case <-stop:
		}
	})
	commit := func(tx *Tx) chan error {
		done := make(chan error, 1)
		go func() {
			_, err := tx.Commit()
			done <- err
		}()
		return done
	}
	// queue commits tx from a goroutine and waits until it is in the queue.
	queue := func(tx *Tx) chan error {
		db.qmu.Lock()
		n := len(db.queue)
		db.qmu.Unlock()
		done := commit(tx)
		for {
			db.qmu.Lock()
			queued := len(db.queue) > n
			db.qmu.Unlock()
			if queued {
				return done
			}
			runtime.Gosched()
		}
	}
	stageAll := func(us []model.Update) *Tx {
		tx := db.Begin()
		for _, u := range us {
			if err := stageUpdate(tx, u); err != nil {
				t.Fatalf("staging %v: %v", u, err)
			}
		}
		return tx
	}

	const rounds = 80
	h, m := refmodel.NewHistory(3), &refmodel.Model{}
	us := h.Commit(8)
	m.Apply(us...)
	winners := []chan error{commit(stageAll(us))} // the first leader, nothing to race
	var all []doomed
	for round := 1; ; round++ {
		if ts := <-applied; ts != h.TS || db.Clock() != h.TS {
			t.Fatalf("round %d: the listener holds commit %d at clock %d, want %d", round, ts, db.Clock(), h.TS)
		}
		g, _, _ := db.Committed()
		if got, want := g.Export(), m.Graph(h.TS); g.Timestamp() != h.TS || !slices.EqualFunc(got, want, sameUpdate) {
			t.Fatalf("round %d: the host's graph at %d (%d entities) is not the model's (%d entities)",
				round, g.Timestamp(), len(got), len(want))
		}
		if round == rounds {
			release <- struct{}{}
			break
		}
		us := h.Commit(8)
		m.Apply(us...)
		w := stageAll(us)
		ds := doom(db, g, us, round)
		winners = append(winners, queue(w))
		for i := range ds {
			ds[i].err = queue(ds[i].tx)
		}
		all = append(all, ds...)
		release <- struct{}{}
	}
	for i, w := range winners {
		if err := <-w; err != nil {
			t.Fatalf("commit %d: %v", i+1, err)
		}
	}
	kinds, hasRels := map[string]int{}, 0
	for _, d := range all {
		err := <-d.err
		if err == nil {
			t.Fatalf("a doomed transaction (%s) committed", d.kind)
		}
		kinds[d.kind]++
		if errors.Is(err, model.ErrHasRels) {
			hasRels++
		}
	}
	t.Logf("%d rounds, doomed transactions by kind: %v (%d aborted on ErrHasRels)", rounds, kinds, hasRels)
	for _, k := range []string{"stale", "creating prefix", "updating prefix", "deleting prefix", "has rels"} {
		if kinds[k] < 5 {
			t.Errorf("%d doomed transactions of kind %q, want at least 5", kinds[k], k)
		}
	}
	if hasRels == 0 {
		t.Error("no doomed transaction aborted on ErrHasRels")
	}
	if st := db.Stats(); st.Conflicts != int64(len(all)) || st.Commits != rounds {
		t.Errorf("stats count %d conflicts and %d commits, want %d and %d", st.Conflicts, st.Commits, len(all), rounds)
	}
}

// sameUpdate compares two updates of a graph's export.
func sameUpdate(x, y model.Update) bool {
	return x.TS == y.TS && x.Kind == y.Kind && x.NodeID == y.NodeID && x.RelID == y.RelID && x.Src == y.Src &&
		x.Tgt == y.Tgt && x.RelLabel == y.RelLabel && slices.Equal(x.AddLabels, y.AddLabels) && x.SetProps.Equal(y.SetProps)
}

// TestCrashSweepClose commits a seeded refmodel.History through Tx with
// SyncCommits off — string values that repeat across entities, set,
// overwritten and deleted — and reopens the host after a clean Close and after
// a power cut at every mutating operation inside Close, in both fault modes.
// Every reopen recovers a prefix of the commits: the graph is the model's at
// the host's clock. A log that reached the disk before the strings it refers
// to fails every later Open with a dangling ref. After the clean Close the
// storage breakdown is the one read before it, and the next commit's property
// records go past the restored append cursor.
func TestCrashSweepClose(t *testing.T) {
	h, m := refmodel.NewHistory(5), &refmodel.Model{}
	var commits [][]model.Update
	for range 60 {
		us := h.Commit(8)
		m.Apply(us...)
		commits = append(commits, us)
	}
	load := func() (*vfstest.FaultFS, *DB) {
		fs := vfstest.NewFaultFS()
		db, err := Open(Options{FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		for _, us := range commits {
			tx := db.Begin()
			for _, u := range us {
				if err := stageUpdate(tx, u); err != nil {
					t.Fatalf("staging %v: %v", u, err)
				}
			}
			if _, err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		return fs, db
	}
	reopen := func(label string, fs vfs.FS) *DB {
		t.Helper()
		db, err := Open(Options{FS: fs})
		if err != nil {
			t.Fatalf("%s: reopen: %v", label, err)
		}
		hg, _, _ := db.Committed()
		if got, want := hg.Export(), m.Graph(db.Clock()); !slices.EqualFunc(got, want, sameUpdate) {
			t.Fatalf("%s: the host's graph at %d (%d entities) is not the model's (%d entities)", label, db.Clock(), len(got), len(want))
		}
		return db
	}

	fs, db := load()
	storage, from := db.Storage(), fs.Ops()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	to := fs.Ops()
	db = reopen("clean close", fs)
	if db.Clock() != h.TS {
		t.Fatalf("clean close: recovered through %d, want %d", db.Clock(), h.TS)
	}
	if got := db.Storage(); got != storage {
		t.Fatalf("clean close: storage %+v, want %+v", got, storage)
	}
	cursor := db.propStore.next
	if cursor*PropRecordBytes != storage.PropRecords {
		t.Fatalf("clean close: property cursor at %d, want %d", cursor, storage.PropRecords/PropRecordBytes)
	}
	if _, err := db.Run(func(tx *Tx) error {
		_, err := tx.CreateNode([]string{"After"}, model.Properties{"a": model.IntValue(1), "b": model.StringValue("b")})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if db.propStore.next != cursor+2 {
		t.Fatalf("the next commit's 2 property records took slots up to %d, want %d past the cursor at %d", db.propStore.next, cursor+2, cursor)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	t.Logf("sweeping %d fault indexes inside Close × 2 modes", to-from)
	for _, torn := range []bool{false, true} {
		for k := from + 1; k <= to; k++ {
			fs, db := load()
			fs.SetTornSync(torn)
			fs.SetFailAfter(k)
			_ = db.Close()
			fs.Crash()
			if err := reopen(fmt.Sprintf("Close k=%d torn=%v", k-from, torn), fs).Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestCheckAgreesOnTheViewAndTheSnapshot: the commit check reads only
// model.Graph, so on the LineageStore's view at ts it gives the verdict it
// gives on the TimeStore's snapshot at ts — nil, ErrExists, ErrNotFound,
// ErrHasRels or ErrDangling — for seeded runs of one to three candidate
// updates of all six kinds, at every commit timestamp of a seeded history.
func TestCheckAgreesOnTheViewAndTheSnapshot(t *testing.T) {
	ctx := context.Background()
	db, err := aion.Open(aion.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	h := refmodel.NewHistory(3)
	for h.TS < 30 {
		if err := db.ApplyBatch(h.Commit(8)); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(3))
	candidate := func() model.Update {
		id, rid := model.NodeID(rng.Int63n(int64(h.Nodes)+1)), model.RelID(rng.Int63n(int64(h.Rels)+1))
		props := model.Properties{"c": model.IntValue(1)}
		return [...]model.Update{
			model.AddNode(0, id, nil, nil),
			model.DeleteNode(0, id),
			model.UpdateNode(0, id, nil, nil, props, nil),
			model.AddRel(0, rid, id, model.NodeID(rng.Int63n(int64(h.Nodes)+1)), "R", nil),
			model.DeleteRel(0, rid, 0, 0),
			model.UpdateRel(0, rid, 0, 0, props, nil),
		}[rng.Intn(6)]
	}
	verdicts := map[error]int{}
	for ts := model.Timestamp(0); ts <= h.TS+1; ts++ {
		snap, err := db.GraphAtContext(ctx, ts)
		if err != nil {
			t.Fatal(err)
		}
		view := db.View(ctx, ts)
		for i := 0; i < 60; i++ {
			run := make([]model.Update, 1+rng.Intn(3))
			for j := range run {
				run[j] = candidate()
			}
			onView, onSnap := newPending(len(run)), newPending(len(run))
			vErr, sErr := onView.check(view, run...), onSnap.check(snap, run...)
			verdict := func(err error) error {
				for _, v := range []error{model.ErrExists, model.ErrNotFound, model.ErrHasRels, model.ErrDangling} {
					if errors.Is(err, v) {
						return v
					}
				}
				return err
			}
			if verdict(vErr) != verdict(sErr) || fmt.Sprint(vErr) != fmt.Sprint(sErr) {
				t.Fatalf("at %d, %v: on the view %v, on the snapshot %v", ts, run, vErr, sErr)
			}
			verdicts[verdict(sErr)]++
		}
		if err := aion.ReadErr(view); err != nil {
			t.Fatalf("the view at %d: %v", ts, err)
		}
	}
	if len(verdicts) != 5 {
		t.Errorf("verdicts %v, want nil and each of the four preconditions", verdicts)
	}
}
