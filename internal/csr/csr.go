// Package csr builds static Compressed Sparse Row projections of a graph
// snapshot, the representation Neo4j's GDS library uses for parallel
// analytics (Sec 2.1, 5.1). Node ids are translated to the dense domain so
// algorithms can use flat vectors.
package csr

import (
	"runtime"
	"sync"

	"aion/internal/memgraph"
	"aion/internal/model"
)

// Graph is an immutable CSR projection over dense node ids.
type Graph struct {
	N          int
	OutOffsets []int64
	OutTargets []int32
	InOffsets  []int64
	InTargets  []int32
	// Weights[i] aligns with OutTargets[i]; nil when no weight property was
	// projected.
	Weights []float64
	Dense   *memgraph.DenseMap
}

// Options configures a projection.
type Options struct {
	// WeightProp, when set, projects this float/int relationship property
	// as edge weights (missing values default to 1).
	WeightProp string
	// Parallel enables multi-goroutine construction (on-the-fly CSR
	// creation is parallelized when snapshots are retrieved, Sec 5.2).
	Parallel bool
}

// Build projects a snapshot into CSR form.
func Build(g *memgraph.Graph, opts Options) *Graph {
	dm := g.BuildDenseMap()
	n := dm.Len()
	c := &Graph{N: n, Dense: dm}
	c.OutOffsets = make([]int64, n+1)
	c.InOffsets = make([]int64, n+1)

	// Pass 1: degree counting.
	for i, sid := range dm.ToSparse {
		c.OutOffsets[i+1] = int64(len(g.Out(sid)))
		c.InOffsets[i+1] = int64(len(g.In(sid)))
	}
	for i := 0; i < n; i++ {
		c.OutOffsets[i+1] += c.OutOffsets[i]
		c.InOffsets[i+1] += c.InOffsets[i]
	}
	c.OutTargets = make([]int32, c.OutOffsets[n])
	c.InTargets = make([]int32, c.InOffsets[n])
	if opts.WeightProp != "" {
		c.Weights = make([]float64, c.OutOffsets[n])
	}

	// Pass 2: fill adjacency, optionally in parallel over node ranges.
	fill := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sid := dm.ToSparse[i]
			oo := c.OutOffsets[i]
			for _, rid := range g.Out(sid) {
				r := g.Rel(rid)
				c.OutTargets[oo] = dm.ToDense[r.Tgt]
				if c.Weights != nil {
					c.Weights[oo] = weightOf(r, opts.WeightProp)
				}
				oo++
			}
			io := c.InOffsets[i]
			for _, rid := range g.In(sid) {
				r := g.Rel(rid)
				c.InTargets[io] = dm.ToDense[r.Src]
				io++
			}
		}
	}
	if !opts.Parallel || n < 1024 {
		fill(0, n)
		return c
	}
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fill(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	return c
}

func weightOf(r *model.Rel, prop string) float64 {
	if v, ok := r.Props[prop]; ok {
		return v.Float()
	}
	return 1
}

// OutDegree returns the out-degree of dense node i.
func (c *Graph) OutDegree(i int32) int64 { return c.OutOffsets[i+1] - c.OutOffsets[i] }

// Out returns the dense out-neighbours of node i (not to be mutated).
func (c *Graph) Out(i int32) []int32 { return c.OutTargets[c.OutOffsets[i]:c.OutOffsets[i+1]] }

// In returns the dense in-neighbours of node i (not to be mutated).
func (c *Graph) In(i int32) []int32 { return c.InTargets[c.InOffsets[i]:c.InOffsets[i+1]] }
