package cypher

import (
	"fmt"
	"math"

	"aion/internal/algo"
	"aion/internal/incremental"
	"aion/internal/memgraph"
	"aion/internal/model"
)

// The seeds of the aion.incremental.* procedures, one per algorithm: series.
func seedAvg(g *memgraph.Graph, args []model.Value) (incremental.Stepper, func() []Val) {
	a := incremental.NewAvg(g, args[0].Str())
	return a, func() []Val { return scalars(model.FloatValue(a.Value()), model.IntValue(a.Count())) }
}

func seedBFS(g *memgraph.Graph, args []model.Value) (incremental.Stepper, func() []Val) {
	b := incremental.NewBFS(g, model.NodeID(args[0].Int()))
	return b, func() []Val {
		reached := 0
		for _, l := range b.Levels() {
			if l != algo.Unreachable {
				reached++
			}
		}
		return scalars(model.IntValue(int64(reached)))
	}
}

func seedSSSP(g *memgraph.Graph, args []model.Value) (incremental.Stepper, func() []Val) {
	s := incremental.NewSSSP(g, model.NodeID(args[0].Int()), args[1].Str())
	return s, func() []Val {
		reached, maxD := 0, 0.0
		for _, d := range s.Distances() {
			if !math.IsInf(d, 1) {
				reached++
				maxD = max(maxD, d)
			}
		}
		return scalars(model.IntValue(int64(reached)), model.FloatValue(maxD))
	}
}

func seedPageRank(g *memgraph.Graph, _ []model.Value) (incremental.Stepper, func() []Val) {
	p := incremental.NewPageRank(g, algo.PageRankOptions{})
	return p, func() []Val {
		top, rank := p.Top()
		return scalars(model.IntValue(int64(p.LastIterations)), model.IntValue(int64(top)), model.FloatValue(rank))
	}
}

func seedColoring(g *memgraph.Graph, _ []model.Value) (incremental.Stepper, func() []Val) {
	c := incremental.NewColoring(g)
	return c, func() []Val { return scalars(model.IntValue(int64(c.NumColors()))) }
}

// series is the table entry of a series procedure (args…, start, end, step)
// of arity arguments, whose rows are (ts, columns…). seed runs the algorithm
// on the snapshot at start with the leading args, and returns its state and
// a function that takes the row after ts; every later time of the series
// hands the state the updates of (prev, ts] and takes the row again. A
// series with end < start is empty: no row, and no snapshot built. The
// series never wraps past MaxInt64, and ctx is checked before every step, so
// the query timeout stops a long series.
func series(arity int, columns []string, seed func(g *memgraph.Graph, args []model.Value) (incremental.Stepper, func() []Val)) Proc {
	return Proc{arity, []int{arity - 3, arity - 2}, append([]string{"ts"}, columns...), func(c *Call) error {
		if c.ts(arity-1) <= 0 {
			return fmt.Errorf("cypher: step must be positive")
		}
		steps := model.NewSteps(c.ts(arity-3), c.ts(arity-2), c.ts(arity-1))
		ts, ok, err := steps.Next(c.Ctx)
		if err != nil || !ok {
			return err
		}
		g, err := c.E.Sys.Aion.GraphAtContext(c.Ctx, ts)
		if err != nil {
			return err
		}
		state, row := seed(g, c.Args[:arity-3])
		for {
			c.Add(append(scalars(model.IntValue(int64(ts))), row()...)...)
			prev := ts
			if ts, ok, err = steps.Next(c.Ctx); err != nil || !ok {
				return err
			}
			hi := ts // GetDiff's exclusive end, ts+1 short of the wrap
			if ts < model.TSInfinity {
				hi++
			}
			diff, err := c.E.Sys.Aion.GetDiffContext(c.Ctx, prev+1, hi)
			if err != nil {
				return err
			}
			if err := g.ApplyAll(diff); err != nil {
				return err
			}
			state.ApplyDiff(g, diff)
		}
	}}
}
