// Package benchshape builds the dataset of the frozen end-to-end benchmark
// for the budget tests. It is test support: no binary imports it.
package benchshape

import (
	"aion/internal/datagen"
	"aion/internal/model"
)

// Updates is the update stream the frozen benchmark/ loads (its
// genDataset, which nothing can import): the DBLP preset at scale 20, then
// two int-property rounds over every node and one string-property round over
// every second relationship, 202 500 updates in all. The property rounds
// carry timestamp 0: a host transaction stamps them.
func Updates(seed int64) []model.Update {
	g := datagen.Generate(datagen.MustPreset("DBLP", 20), datagen.Options{Seed: seed})
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
	return us
}
