package bench

import (
	"fmt"

	"aion/internal/algo"
	"aion/internal/datagen"
	"aion/internal/incremental"
	"aion/internal/memgraph"
	"aion/internal/model"
)

// Fig12Row is one Algorithm(#snapshots) × dataset point of Fig 12 (and of the
// extension experiment): the speedup of incremental execution over
// recomputation across consecutive snapshots.
type Fig12Row struct {
	Dataset   string
	Algorithm string // AVG, BFS, PR; SSSP, COLOR
	Snapshots int
	Speedup   float64
}

// incAlgo is one algorithm of the snapshot series: start runs it on the
// series' first graph and returns how it takes in each next diff (already
// applied to g); full recomputes it from scratch on g.
type incAlgo struct {
	start func(g *memgraph.Graph) func(diff []model.Update)
	full  func(g *memgraph.Graph)
}

// prOpts: both PageRank runs execute on the dynamic representation (Sec
// 6.6/6.7: analytics run on top of the dynamic graph, not a fresh CSR); the
// recompute restarts from the uniform vector each snapshot while the
// incremental run warm-starts.
var prOpts = algo.PageRankOptions{Epsilon: 0.01, MaxIter: 100}

// incAlgos is the algorithm table: AVG, BFS and PageRank are Fig 12's; SSSP
// (monotonic, path-based) and greedy colouring (non-monotonic) are the Sec 5.2
// classes the paper claims but does not evaluate, which -exp ext runs.
var incAlgos = map[string]incAlgo{
	"AVG": {
		start: func(g *memgraph.Graph) func([]model.Update) {
			a := incremental.NewAvg("w")
			a.InitFrom(g)
			_ = a.Value()
			return func(diff []model.Update) { a.ApplyDiff(diff); _ = a.Value() }
		},
		full: func(g *memgraph.Graph) { a := incremental.NewAvg("w"); a.InitFrom(g); _ = a.Value() },
	},
	"BFS": {
		start: func(g *memgraph.Graph) func([]model.Update) {
			b := incremental.NewBFS(g, firstNode(g))
			return func(diff []model.Update) { b.ApplyDiff(g, diff) }
		},
		full: func(g *memgraph.Graph) { algo.BFS(g, firstNode(g)) },
	},
	"PR": {
		start: func(g *memgraph.Graph) func([]model.Update) {
			pr := incremental.NewPageRank(prOpts)
			pr.Run(g)
			return func([]model.Update) { pr.Run(g) }
		},
		full: func(g *memgraph.Graph) { algo.PageRankDynamic(g, nil, prOpts) },
	},
	"SSSP": {
		start: func(g *memgraph.Graph) func([]model.Update) {
			s := incremental.NewSSSP(g, firstNode(g), "w")
			return func(diff []model.Update) { s.ApplyDiff(g, diff) }
		},
		full: func(g *memgraph.Graph) { incremental.NewSSSP(g, firstNode(g), "w") },
	},
	"COLOR": {
		start: func(g *memgraph.Graph) func([]model.Update) {
			col := incremental.NewColoring(g)
			return func(diff []model.Update) { col.ApplyDiff(g, diff) }
		},
		full: func(g *memgraph.Graph) { incremental.NewColoring(g) },
	},
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
// snapshots.
func RunFig12(c Config, snapshotCounts []int) ([]Fig12Row, error) {
	return runIncremental(c, snapshotCounts, []string{"AVG", "BFS", "PR"},
		"Fig 12: incremental execution speedup over recomputation")
}

// RunExtensionIncremental measures incremental SSSP and colouring against
// per-snapshot recomputation, with the Fig 12 workload protocol.
func RunExtensionIncremental(c Config, snapshotCounts []int) ([]Fig12Row, error) {
	return runIncremental(c, snapshotCounts, []string{"SSSP", "COLOR"},
		"Extension: incremental SSSP and graph colouring (Sec 5.2 classes)")
}

// runIncremental times each named algorithm of the table over every dataset's
// snapshot series: every run evolves its own CoW clone of the first graph.
func runIncremental(c Config, snapshotCounts []int, algs []string, title string) ([]Fig12Row, error) {
	c.Defaults()
	if len(snapshotCounts) == 0 {
		snapshotCounts = []int{10, 100}
	}
	var rows []Fig12Row
	t := &table{header: []string{"Algorithm(#snapshots)", "Dataset", "incremental (ms)", "recompute (ms)", "speedup (x)"}}
	for _, name := range c.Datasets {
		for _, snaps := range snapshotCounts {
			base, diffs, err := fig12Workload(c, name, snaps)
			if err != nil {
				return nil, err
			}
			for _, alg := range algs {
				a := incAlgos[alg]
				d, err := measure(timed(func() error {
					g := base.Clone()
					step := a.start(g)
					for _, diff := range diffs {
						applyDiff(g, diff)
						step(diff)
					}
					return nil
				}), timed(func() error {
					g := base.Clone()
					a.full(g)
					for _, diff := range diffs {
						applyDiff(g, diff)
						a.full(g)
					}
					return nil
				}))
				if err != nil {
					return nil, err
				}
				row := Fig12Row{Dataset: name, Algorithm: alg, Snapshots: snaps, Speedup: d[1].Seconds() / d[0].Seconds()}
				rows = append(rows, row)
				t.add(fmt.Sprintf("%s(%d)", alg, snaps), name, ms(d[0]), ms(d[1]), f1(row.Speedup))
			}
		}
	}
	c.emit(t, title)
	return rows, nil
}

func applyDiff(g *memgraph.Graph, diff []model.Update) {
	for _, u := range diff {
		_ = g.Apply(u)
	}
}

func firstNode(g *memgraph.Graph) model.NodeID {
	var id model.NodeID
	g.ForEachNode(func(n *model.Node) bool {
		id = n.ID
		return false
	})
	return id
}
