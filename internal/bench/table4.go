package bench

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"aion/internal/baselines/gradoop"
	"aion/internal/baselines/raphtory"
	"aion/internal/datagen"
	"aion/internal/enc"
	"aion/internal/lineagestore"
	"aion/internal/model"
	"aion/internal/strstore"
)

// churn appends delete/re-add cycles for every relationship, multiplying
// each entity's update history without changing the graph's width.
func churn(ds *datagen.Dataset, cycles int) []model.Update {
	ends := map[model.RelID][2]model.NodeID{}
	for _, u := range ds.Updates {
		if u.Kind == model.OpAddRel {
			ends[u.RelID] = [2]model.NodeID{u.Src, u.Tgt}
		}
	}
	ts := ds.MaxTS
	var out []model.Update
	for c := 0; c < cycles; c++ {
		for _, rid := range ds.RelIDs {
			e := ends[rid]
			ts++
			out = append(out, model.DeleteRel(ts, rid, e[0], e[1]))
			ts++
			out = append(out, model.AddRel(ts, rid, e[0], e[1], "LINK", nil))
		}
	}
	ds.MaxTS = ts
	return out
}

// RunTable4 prints the Table 4 cost model — each system's storage and
// retrieval costs, the analytic part — and verifies it empirically: how
// point-lookup latency grows when each entity's history is three times
// longer. Logarithmic costs scale ≈1x; linear history scans scale ≈3x.
func RunTable4(c Config, dir func(string) string) (Table, error) {
	c.Defaults()
	name := c.Datasets[0]

	// measure3 times the three systems' point lookups over one history.
	measure3 := func(cycles int) ([]time.Duration, error) {
		ds := datagen.Generate(datagen.MustPreset(name, c.Scale*4), datagen.Options{Seed: c.Seed})
		all := append(append([]model.Update(nil), ds.Updates...), churn(ds, cycles)...)
		ls, err := lineagestore.Open(enc.NewCodec(strstore.NewMem()),
			lineagestore.Options{Dir: dir(fmt.Sprintf("t4-%d", cycles))})
		if err != nil {
			return nil, err
		}
		defer ls.Close()
		if err := ls.ApplyBatch(all); err != nil {
			return nil, err
		}
		raph, grad := raphtory.New(), gradoop.New()
		raph.IngestAll(all)
		grad.LoadAll(all)
		const ops = 2000
		ids, tss := randRelQueries(rand.New(rand.NewSource(c.Seed)), ds, ops)
		return measure(timed(func() error {
			for i := range ids {
				if _, err := ls.GetRelationshipContext(context.Background(), ids[i], tss[i], tss[i]); err != nil {
					return err
				}
			}
			return nil
		}), timed(func() error {
			for i := range ids {
				raph.GetRelationship(ids[i], tss[i])
			}
			return nil
		}), timed(func() error {
			for i := range ids[:ops/20] { // full scans: keep the run short
				grad.GetRelationship(ids[i], tss[i])
			}
			return nil
		}))
	}
	d1, err := measure3(1) // |U| history
	if err != nil {
		return Table{}, err
	}
	d3, err := measure3(3) // 3|U| history
	if err != nil {
		return Table{}, err
	}
	scale := func(i int) string { return f2(d3[i].Seconds() / d1[i].Seconds()) }
	t := &table{header: []string{"System", "Space", "Rel retrieval", "Snapshot retrieval", "Persistent", "measured 3x-history scale (x)"}}
	t.add("Aion", "2|U| + k|G|", "log(|U_R|)", "|G| + delta(|U|)", "yes", scale(0))
	t.add("Raphtory", "|U|", "2|U_R^n|", "|U|", "no", scale(1))
	t.add("Gradoop", "|U|", "|U_R|", "|U|", "no", scale(2))
	return c.emit(t, fmt.Sprintf("Table 4: storage and retrieval costs (measured on %s)", name)), nil
}
