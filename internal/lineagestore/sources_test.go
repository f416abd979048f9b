package lineagestore

import (
	"context"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"aion/internal/enc"
	"aion/internal/model"
	"aion/internal/strstore"
	"aion/internal/testkit/refmodel"
)

// sourceHistory is a history that exercises every way the source index can
// hold a relationship: rel 5 deleted and inserted again under the same
// source, then under another one; an id past 2^40; a source past 2^32 under a
// small id; and plain relationships.
func sourceHistory() []model.Update {
	const big = model.NodeID(1) << 33
	p := func(v int64) model.Properties { return model.Properties{"w": model.IntValue(v)} }
	return []model.Update{
		model.AddNode(1, 1, nil, nil), model.AddNode(1, 2, nil, nil), model.AddNode(1, 3, nil, nil), model.AddNode(1, big, nil, nil),
		model.AddRel(2, 5, 1, 2, "R", p(1)),
		model.AddRel(2, 7, 2, 1, "R", nil),
		model.DeleteRel(3, 5, 1, 2),
		model.AddRel(3, 1<<40, big, 1, "FAR", p(2)),
		model.AddRel(4, 5, 1, 3, "R", p(3)), // back under the same source
		model.AddRel(4, 6, big, 2, "BIG", nil),
		model.UpdateRel(5, 1<<40, big, 1, p(4), nil),
		model.DeleteRel(5, 5, 1, 3),
		model.AddRel(6, 5, 3, 1, "S", p(5)), // back under another source
		model.UpdateRel(7, 5, 3, 1, p(6), nil),
		model.UpdateRel(7, 7, 2, 1, p(7), nil),
	}
}

// sourceReadsAgree compares every read of sourceHistory's entities at each
// instant and over windows spanning several lifetimes with the model's.
func sourceReadsAgree(t *testing.T, s *Store, m *refmodel.Model) {
	t.Helper()
	var windows [][2]model.Timestamp
	for at := model.Timestamp(0); at <= 8; at++ {
		windows = append(windows, [2]model.Timestamp{at, at})
	}
	windows = append(windows, [][2]model.Timestamp{{0, 9}, {2, 5}, {3, 7}, {4, 6}, {5, 8}}...)
	readsAgree(t, s, m, []model.NodeID{1, 2, 3, 1 << 33}, []model.RelID{5, 6, 7, 1 << 40, 8}, windows)
}

// TestSourceIndexMatchesTheReferenceModel: point reads through the source
// index answer like the reference model — after the updates, after a clean
// Close and Open (the index rebuilt from in.idx), and after a crash (no
// checkpoint: CatchUp wipes and replays the log). Ids and sources that fit no
// slot are served from the map, and the vector never grows to them.
func TestSourceIndexMatchesTheReferenceModel(t *testing.T) {
	us := sourceHistory()
	m := &refmodel.Model{}
	m.Apply(us...)
	dir := t.TempDir()
	codec := enc.NewCodec(strstore.NewMem())
	s, err := Open(codec, Options{Dir: dir, ChainThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	apply(t, s, us...)
	checkIndex := func(s *Store) {
		t.Helper()
		if n := len(s.srcs.dense); n > 8 {
			t.Errorf("the id vector holds %d slots: it grew towards an id it cannot hold", n)
		}
		var keys []model.RelID
		for rel := range s.srcs.many {
			keys = append(keys, rel)
		}
		if slices.Sort(keys); !slices.Equal(keys, []model.RelID{5, 6, 1 << 40}) {
			t.Errorf("the map holds ids %v, want the re-inserted 5, 6 with a source past 2^32, and 2^40", keys)
		}
		if srcs := s.srcs.many[5]; len(srcs) != 2 || !slices.Contains(srcs, 1) || !slices.Contains(srcs, 3) {
			t.Errorf("rel 5's sources are %v, want nodes 1 and 3 once each", srcs)
		}
		sourceReadsAgree(t, s, m)
	}
	checkIndex(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	if s, err = Open(codec, Options{Dir: dir, ChainThreshold: 2}); err != nil {
		t.Fatal(err)
	}
	checkIndex(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A crash: no checkpoint over trees that hold data.
	if err := os.Remove(filepath.Join(dir, checkpointName)); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(codec, Options{Dir: dir, ChainThreshold: 2}); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	err = s.CatchUp(uint64(len(us)), func(from model.Timestamp, fn func(model.Update) bool) error {
		for _, u := range us {
			if u.TS >= from && !fn(u) {
				break
			}
		}
		return nil
	})
	if st := s.Stats(); err != nil || st.CaughtUp != uint64(len(us)) {
		t.Fatalf("CatchUp after a crash: %v, %d of %d updates replayed", err, st.CaughtUp, len(us))
	}
	checkIndex(s)
}

// TestPointReadsUnderInsertions (run it with -race): point reads run while
// ApplyBatch inserts relationships among other nodes, whose ids grow the
// vector under the readers, and still answer like the model.
func TestPointReadsUnderInsertions(t *testing.T) {
	s := openStore(t, Options{})
	defer s.Close()
	us := sourceHistory()
	m := &refmodel.Model{}
	m.Apply(us...)
	apply(t, s, us...)
	const inserts = 20000
	done := make(chan error, 1)
	go func() {
		for i := 0; i < inserts; i++ {
			rel := model.RelID(100 + i)
			if err := s.ApplyBatch([]model.Update{model.AddRel(model.Timestamp(10+i), rel, model.NodeID(10+i%50), 11, "W", nil)}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	ctx := context.Background()
	for i := 0; ; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			if n := len(s.srcs.dense); n != 100+inserts {
				t.Errorf("the id vector holds %d slots after %d insertions from id 100", n, inserts)
			}
			return
		default:
		}
		sourceReadsAgree(t, s, m)
		if _, err := s.GetRelationshipContext(ctx, model.RelID(100+i%inserts), 0, model.TSInfinity); err != nil {
			t.Fatal(err)
		}
	}
}
