package cypher

import (
	"fmt"
	"math"
	"testing"

	"aion/internal/aion"
	"aion/internal/algo"
	"aion/internal/incremental"
	"aion/internal/memgraph"
	"aion/internal/model"
	"aion/internal/system"
)

// TestIncrementalProceduresMatchTheReferenceModel: seeded histories are
// committed into a store that takes a snapshot every 12 updates, so a
// series step's GetDiff crosses several snapshots of the chain. For steps 1
// and 4, every row of aion.incremental.avg, .bfs and .sssp equals the
// algorithm recomputed on internal/testkit/refmodel's graph at the row's
// time, and every row of .pagerank equals an incremental.PageRank fed the
// model's graph at the start and then the model's diff of each step.
func TestIncrementalProceduresMatchTheReferenceModel(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		sys, err := system.Open(system.Options{Dir: t.TempDir(), Aion: aion.Options{SnapshotEveryOps: 12}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sys.Close() })
		e := NewEngine(sys)
		m, last := commitHistory(t, e, seed, 48)
		graph := func(ts model.Timestamp) *memgraph.Graph {
			g := memgraph.New()
			if err := g.ApplyAll(m.Graph(ts)); err != nil {
				t.Fatal(err)
			}
			return g
		}
		for _, step := range []model.Timestamp{1, 4} {
			var times []model.Timestamp
			for ts := model.Timestamp(1); ts <= last; ts += step {
				times = append(times, ts)
			}
			span := fmt.Sprintf("1, %d, %d)", last, step)
			avg := mustQuery(t, e, `CALL aion.incremental.avg('n', `+span, nil).Rows
			bfs := mustQuery(t, e, `CALL aion.incremental.bfs(0, `+span, nil).Rows
			sssp := mustQuery(t, e, `CALL aion.incremental.sssp(0, 'n', `+span, nil).Rows
			pr := mustQuery(t, e, `CALL aion.incremental.pagerank(`+span, nil).Rows
			for name, rows := range map[string][][]Val{"avg": avg, "bfs": bfs, "sssp": sssp, "pagerank": pr} {
				if len(rows) != len(times) {
					t.Fatalf("seed %d step %d: %s returned %d rows, want %d", seed, step, name, len(rows), len(times))
				}
			}
			var g *memgraph.Graph
			var p *incremental.PageRank
			for i, ts := range times {
				at := fmt.Sprintf("seed %d step %d ts %d", seed, step, ts)
				want := graph(ts)
				var sum float64
				var count int64
				want.ForEachRel(func(r *model.Rel) bool {
					if v, ok := r.Props["n"]; ok {
						sum, count = sum+v.Float(), count+1
					}
					return true
				})
				if count > 0 {
					sum /= float64(count)
				}
				if got := row(avg[i]); got != fmt.Sprint([]any{int64(ts), sum, count}) {
					t.Fatalf("%s: avg row %s, the model's %v over %d", at, got, sum, count)
				}
				reached := 0
				for _, l := range algo.BFS(want, 0) {
					if l != algo.Unreachable {
						reached++
					}
				}
				if got := row(bfs[i]); got != fmt.Sprint([]any{int64(ts), int64(reached)}) {
					t.Fatalf("%s: bfs row %s, the model reaches %d", at, got, reached)
				}
				reached, far := 0, 0.0
				for _, d := range algo.SSSP(want, 0, "n") {
					if !math.IsInf(d, 1) {
						reached, far = reached+1, max(far, d)
					}
				}
				if got := row(sssp[i]); got != fmt.Sprint([]any{int64(ts), int64(reached), far}) {
					t.Fatalf("%s: sssp row %s, the model reaches %d, the farthest at %v", at, got, reached, far)
				}
				if i == 0 {
					g = graph(ts)
					p = incremental.NewPageRank(g, algo.PageRankOptions{})
				} else {
					diff := m.Diff(times[i-1]+1, ts+1)
					if err := g.ApplyAll(diff); err != nil {
						t.Fatal(err)
					}
					p.ApplyDiff(g, diff)
				}
				top, rank := p.Top()
				r := pr[i]
				if r[0].S.Int() != int64(ts) || r[1].S.Int() != int64(p.LastIterations) || r[2].S.Int() != int64(top) || math.Abs(r[3].S.Float()-rank) > 1e-9 {
					t.Fatalf("%s: pagerank row %s, the model's %d iterations, top %d at %v", at, row(r), p.LastIterations, top, rank)
				}
			}
		}
	}
}

// row prints a row of scalars as fmt prints a []any of their Go values.
func row(vals []Val) string {
	out := make([]any, len(vals))
	for i, v := range vals {
		switch v.S.Kind() {
		case model.KindInt:
			out[i] = v.S.Int()
		case model.KindFloat:
			out[i] = v.S.Float()
		default:
			out[i] = v.S
		}
	}
	return fmt.Sprint(out)
}
