package cypher

import (
	"context"
	"fmt"
	"math"

	"aion/internal/algo"
	"aion/internal/incremental"
	"aion/internal/memgraph"
	"aion/internal/model"
)

// rowFunc returns a series step's row after its leading ts column.
type rowFunc func(ctx context.Context) ([]Val, error)

// seedFunc runs an algorithm on g, the series' first snapshot, with the
// procedure's leading arguments, and returns its state and its row.
type seedFunc func(g *memgraph.Graph, args []model.Value) (incremental.Stepper, rowFunc)

// registerIncremental wires the Sec 5.2 algorithms as series procedures.
func registerIncremental(e *Engine) {
	// aion.incremental.avg(prop, start, end, step) -> (ts, avg, count).
	e.Register("aion.incremental.avg", series("aion.incremental.avg", 4, []string{"avg", "count"},
		func(g *memgraph.Graph, args []model.Value) (incremental.Stepper, rowFunc) {
			a := incremental.NewAvg(g, args[0].Str())
			return a, func(context.Context) ([]Val, error) {
				return scalars(model.FloatValue(a.Value()), model.IntValue(a.Count())), nil
			}
		}))
	// aion.incremental.bfs(src, start, end, step) -> (ts, reached).
	e.Register("aion.incremental.bfs", series("aion.incremental.bfs", 4, []string{"reached"},
		func(g *memgraph.Graph, args []model.Value) (incremental.Stepper, rowFunc) {
			b := incremental.NewBFS(g, model.NodeID(args[0].Int()))
			return b, func(ctx context.Context) ([]Val, error) {
				reached := 0
				for i, l := range b.Levels() {
					if err := strided(ctx, i); err != nil {
						return nil, err
					}
					if l != algo.Unreachable {
						reached++
					}
				}
				return scalars(model.IntValue(int64(reached))), nil
			}
		}))
	// aion.incremental.sssp(src, prop, start, end, step) -> (ts, reached,
	// maxDistance).
	e.Register("aion.incremental.sssp", series("aion.incremental.sssp", 5, []string{"reached", "maxDistance"},
		func(g *memgraph.Graph, args []model.Value) (incremental.Stepper, rowFunc) {
			s := incremental.NewSSSP(g, model.NodeID(args[0].Int()), args[1].Str())
			return s, func(ctx context.Context) ([]Val, error) {
				reached, maxD := 0, 0.0
				for i, d := range s.Distances() {
					if err := strided(ctx, i); err != nil {
						return nil, err
					}
					if !math.IsInf(d, 1) {
						reached++
						maxD = max(maxD, d)
					}
				}
				return scalars(model.IntValue(int64(reached)), model.FloatValue(maxD)), nil
			}
		}))
	// aion.incremental.pagerank(start, end, step) -> (ts, iterations,
	// topNode, topRank).
	e.Register("aion.incremental.pagerank", series("aion.incremental.pagerank", 3, []string{"iterations", "topNode", "topRank"},
		func(g *memgraph.Graph, _ []model.Value) (incremental.Stepper, rowFunc) {
			p := incremental.NewPageRank(g, algo.PageRankOptions{})
			return p, func(context.Context) ([]Val, error) {
				top, rank := p.Top()
				return scalars(model.IntValue(int64(p.LastIterations)), model.IntValue(int64(top)), model.FloatValue(rank)), nil
			}
		}))
	// aion.incremental.coloring(start, end, step) -> (ts, colors).
	e.Register("aion.incremental.coloring", series("aion.incremental.coloring", 3, []string{"colors"},
		func(g *memgraph.Graph, _ []model.Value) (incremental.Stepper, rowFunc) {
			c := incremental.NewColoring(g)
			return c, func(context.Context) ([]Val, error) {
				return scalars(model.IntValue(int64(c.NumColors()))), nil
			}
		}))
}

// series builds the procedure name(args…, start, end, step) of nargs
// arguments, whose rows are (ts, columns…). seed runs the algorithm on the
// snapshot at start; every later time of the series hands the state the
// updates of (prev, ts] and takes the row again. A series with end < start
// is empty: no row, and no snapshot built. The series never wraps past
// MaxInt64, and ctx is checked before every step, so the query timeout
// stops a long series.
func series(name string, nargs int, columns []string, seed seedFunc) Proc {
	return func(ctx context.Context, e *Engine, args []model.Value) (*Result, error) {
		if err := argN(args, nargs, name); err != nil {
			return nil, err
		}
		lead, times := args[:nargs-3], args[nargs-3:]
		if times[2].Int() <= 0 {
			return nil, fmt.Errorf("cypher: step must be positive")
		}
		res := &Result{Columns: append([]string{"ts"}, columns...)}
		steps := model.NewSteps(model.Timestamp(times[0].Int()), model.Timestamp(times[1].Int()), model.Timestamp(times[2].Int()))
		ts, ok, err := steps.Next(ctx)
		if err != nil {
			return nil, err
		} else if !ok {
			return res, nil
		}
		g, err := e.Sys.Aion.GraphAtContext(ctx, ts)
		if err != nil {
			return nil, err
		}
		state, row := seed(g, lead)
		for {
			vals, err := row(ctx)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, append(scalars(model.IntValue(int64(ts))), vals...))
			prev := ts
			if ts, ok, err = steps.Next(ctx); err != nil {
				return nil, err
			} else if !ok {
				return res, nil
			}
			hi := ts // GetDiff's exclusive end, ts+1 short of the wrap
			if ts < model.TSInfinity {
				hi++
			}
			diff, err := e.Sys.Aion.GetDiffContext(ctx, prev+1, hi)
			if err != nil {
				return nil, err
			}
			if err := g.ApplyAll(diff); err != nil {
				return nil, err
			}
			state.ApplyDiff(g, diff)
		}
	}
}
