package bench

import (
	"fmt"

	"aion/internal/algo"
	"aion/internal/datagen"
	"aion/internal/incremental"
	"aion/internal/memgraph"
	"aion/internal/model"
)

// incAlgos is the algorithm table, name → seed: a seed runs the algorithm on
// a full snapshot. The recompute calls it on every snapshot of the series;
// the incremental run calls it on the first and hands each next diff to the
// state it returns. AVG, BFS and PageRank are Fig 12's; SSSP (monotonic,
// path-based) and greedy colouring (non-monotonic) are the Sec 5.2 classes
// the paper claims but does not evaluate, which -exp ext runs. Both PageRank
// runs execute on the dynamic representation (Sec 6.6/6.7: analytics run on
// top of the dynamic graph, not a fresh CSR); the recompute restarts from the
// uniform vector each snapshot while the incremental run warm-starts.
var incAlgos = map[string]func(g *memgraph.Graph) incremental.Stepper{
	"AVG":   func(g *memgraph.Graph) incremental.Stepper { return incremental.NewAvg(g, "w") },
	"BFS":   func(g *memgraph.Graph) incremental.Stepper { return incremental.NewBFS(g, firstNode(g)) },
	"PR":    func(g *memgraph.Graph) incremental.Stepper { return incremental.NewPageRank(g, algo.PageRankOptions{}) },
	"SSSP":  func(g *memgraph.Graph) incremental.Stepper { return incremental.NewSSSP(g, firstNode(g), "w") },
	"COLOR": func(g *memgraph.Graph) incremental.Stepper { return incremental.NewColoring(g) },
}

// fig12Workload builds the paper's Sec 6.6 protocol: load half of the
// relationships into the first snapshot and divide the remaining ones into
// `snapshots` increments.
func fig12Workload(c Config, name string, snapshots int) (base *memgraph.Graph, diffs [][]model.Update, err error) {
	ds := c.genDataset(name, datagen.Options{RelWeightProp: "w"})
	// Split the update stream at the point where half the relationships
	// are loaded.
	relSeen, splitAt := 0, len(ds.Updates)
	for i, u := range ds.Updates {
		if u.Kind == model.OpAddRel {
			relSeen++
			if relSeen >= ds.Spec.Rels/2 {
				splitAt = i + 1
				break
			}
		}
	}
	base = memgraph.New()
	if err := base.ApplyAll(ds.Updates[:splitAt]); err != nil {
		return nil, nil, err
	}
	rest := ds.Updates[splitAt:]
	per := (len(rest) + snapshots - 1) / snapshots
	for lo := 0; lo < len(rest); lo += per {
		diffs = append(diffs, rest[lo:min(lo+per, len(rest))])
	}
	return base, diffs, nil
}

// RunFig12 regenerates Fig 12 for AVG, BFS, and PageRank with 10 and 100
// snapshots: one Algorithm(#snapshots) × dataset row each, incremental
// execution's and recomputation's ms across consecutive snapshots and the
// speedup (one decimal, so a gate divides the two ms columns instead).
func RunFig12(c Config, snapshotCounts []int) (Table, error) {
	return runIncremental(c, snapshotCounts, []string{"AVG", "BFS", "PR"},
		"Fig 12: incremental execution speedup over recomputation")
}

// RunExtensionIncremental measures incremental SSSP and colouring against
// per-snapshot recomputation, with the Fig 12 workload protocol.
func RunExtensionIncremental(c Config, snapshotCounts []int) (Table, error) {
	return runIncremental(c, snapshotCounts, []string{"SSSP", "COLOR"},
		"Extension: incremental SSSP and graph colouring (Sec 5.2 classes)")
}

// runIncremental times each named algorithm of the table over every dataset's
// snapshot series: every run evolves its own CoW clone of the first graph,
// and each timed sample repeats the run for at least minWork.
func runIncremental(c Config, snapshotCounts []int, algs []string, title string) (Table, error) {
	c.Defaults()
	if len(snapshotCounts) == 0 {
		snapshotCounts = []int{10, 100}
	}
	t := &table{header: []string{"Algorithm(#snapshots)", "Dataset", "incremental (ms)", "recompute (ms)", "speedup (x)"}}
	for _, name := range c.Datasets {
		for _, snaps := range snapshotCounts {
			base, diffs, err := fig12Workload(c, name, snaps)
			if err != nil {
				return Table{}, err
			}
			for _, alg := range algs {
				seed := incAlgos[alg]
				d, err := measure(repeated(func() error {
					g := base.Clone()
					state := seed(g)
					for _, diff := range diffs {
						applyDiff(g, diff)
						state.ApplyDiff(g, diff)
					}
					return nil
				}), repeated(func() error {
					g := base.Clone()
					seed(g)
					for _, diff := range diffs {
						applyDiff(g, diff)
						seed(g)
					}
					return nil
				}))
				if err != nil {
					return Table{}, err
				}
				t.add(fmt.Sprintf("%s(%d)", alg, snaps), name, ms(d[0]), ms(d[1]), f1(d[1].Seconds()/d[0].Seconds()))
			}
		}
	}
	return c.emit(t, title), nil
}

func applyDiff(g *memgraph.Graph, diff []model.Update) {
	for _, u := range diff {
		_ = g.Apply(u)
	}
}

func firstNode(g *memgraph.Graph) model.NodeID {
	id := model.NodeID(0)
	for id < g.MaxNodeID() && !g.HasNode(id) {
		id++
	}
	return id
}
