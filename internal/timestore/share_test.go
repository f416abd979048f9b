package timestore

import (
	"context"
	"fmt"
	"testing"

	"aion/internal/enc"
	"aion/internal/model"
	"aion/internal/strstore"
	"aion/internal/testkit/memshare"
)

// A graph loaded from an element file holds the latest graph's own records
// for everything the history has left alone since, and none when the history
// rewrote every entity after the snapshot; either way every read answers what
// a replay from zero does, and the counters say which it was.
func TestLoadedElementSharesWithLatest(t *testing.T) {
	ctx := context.Background()
	const n = 40
	var built []model.Update
	for i := 0; i < n; i++ {
		built = append(built, model.AddNode(1, model.NodeID(i), []string{"N"}, model.Properties{"v": model.IntValue(int64(i))}))
	}
	for i := 0; i+1 < n; i++ {
		built = append(built, model.AddRel(2, model.RelID(i), model.NodeID(i), model.NodeID(i+1), "R", model.Properties{"w": model.IntValue(int64(i))}))
	}
	for _, rewrite := range []bool{false, true} {
		t.Run(fmt.Sprintf("rewrite=%v", rewrite), func(t *testing.T) {
			us := append([]model.Update(nil), built...)
			if rewrite {
				for i := 0; i < n; i++ {
					us = append(us, model.UpdateNode(3, model.NodeID(i), nil, nil, model.Properties{"v": model.IntValue(-1)}, nil))
				}
				for i := 0; i+1 < n; i++ {
					us = append(us, model.UpdateRel(3, model.RelID(i), model.NodeID(i), model.NodeID(i+1), model.Properties{"w": model.IntValue(-1)}, nil))
				}
			}
			us = append(us, model.AddNode(4, n, nil, nil))
			o := &fenceOracle{t: t, us: us, pos: streamPositions(us), codec: enc.NewCodec(strstore.NewMem())}
			s := openStore(t, Options{SnapshotEveryOps: 1 << 30})
			if err := s.AppendBatch(built); err != nil {
				t.Fatal(err)
			}
			snapshotNow(t, s) // a full at timestamp 2, on disk only
			if err := s.AppendBatch(us[len(built):]); err != nil {
				t.Fatal(err)
			}

			before := s.Stats()
			g, err := s.GetGraphContext(ctx, 2)
			if err != nil {
				t.Fatal(err)
			}
			st := s.Stats()
			loaded, shared := st.LoadedEntities-before.LoadedEntities, st.SharedEntities-before.SharedEntities
			want := uint64(2*n - 1)
			if rewrite {
				want = 0
			}
			if loaded != 2*n-1 || shared != want {
				t.Errorf("loading the full produced %d entities, %d of them the latest graph's; want %d and %d", loaded, shared, 2*n-1, want)
			}
			nodes, rels := memshare.Records(g, latestOf(t, s))
			if uint64(nodes+rels) != want {
				t.Errorf("GetGraph(2) holds %d of the latest graph's records, want %d", nodes+rels, want)
			}
			if o.digest(g.Export()) != o.digest(o.graphAt(2).Export()) {
				t.Error("GetGraph(2) differs from a replay from zero")
			}
			if _, err := s.GetGraphContext(ctx, 2); err != nil || s.Stats().LoadedEntities != st.LoadedEntities {
				t.Errorf("a cache hit loaded entities (%v)", err)
			}
			o.check(s, "shared")
		})
	}
}
