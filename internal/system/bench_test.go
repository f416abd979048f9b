package system

import (
	"testing"

	"aion/internal/aion"
	"aion/internal/datagen"
	"aion/internal/hostdb"
	"aion/internal/model"
)

// BenchmarkReopen times system.Open + Close of a cleanly closed store with
// the shape benchmark/ sets up: the DBLP preset at scale 20 (15 000 nodes,
// 105 000 relationships), two property rounds over every node and one over
// every second relationship — 202 500 updates in transactions of 2 000 —
// with the operation snapshot policy at 16 384.
func BenchmarkReopen(b *testing.B) {
	g := datagen.Generate(datagen.MustPreset("DBLP", 20), datagen.Options{Seed: 1})
	us := g.Updates
	for _, key := range []string{"p0", "p1"} {
		for id := 0; id < g.Spec.Nodes; id++ {
			us = append(us, model.UpdateNode(0, model.NodeID(id), nil, nil,
				model.Properties{key: model.IntValue(int64(id))}, nil))
		}
	}
	for _, u := range g.Updates {
		if u.Kind == model.OpAddRel && u.RelID%2 == 0 {
			us = append(us, model.UpdateRel(0, u.RelID, u.Src, u.Tgt,
				model.Properties{"w": model.StringValue("value-0-of-property-chain")}, nil))
		}
	}
	opts := Options{Dir: b.TempDir(), Aion: aion.Options{SnapshotEveryOps: 16384}}
	s, err := Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	for lo := 0; lo < len(us); lo += 2000 {
		batch := us[lo:min(lo+2000, len(us))]
		_, err := s.Host.Run(func(tx *hostdb.Tx) error {
			for _, u := range batch {
				var err error
				switch u.Kind {
				case model.OpAddNode:
					err = tx.CreateNodeWithID(u.NodeID, u.AddLabels, u.SetProps)
				case model.OpAddRel:
					err = tx.CreateRelWithID(u.RelID, u.Src, u.Tgt, u.RelLabel, u.SetProps)
				case model.OpUpdateNode:
					err = tx.SetNodeProps(u.NodeID, u.SetProps, u.DelProps)
				case model.OpUpdateRel:
					err = tx.SetRelProps(u.RelID, u.SetProps, u.DelProps)
				}
				if err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	opts.SyncCommits = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(opts)
		if err != nil {
			b.Fatal(err)
		}
		if st := s.Aion.LineageStore().Stats(); st.Updates != uint64(len(us)) || st.CaughtUp != 0 {
			b.Fatalf("reopened lineage %+v, want %d updates and none re-applied", st, len(us))
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
