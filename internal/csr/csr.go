// Package csr builds static Compressed Sparse Row projections of a graph
// snapshot, the representation Neo4j's GDS library runs its algorithms on
// (Sec 2.1, 5.1); here PageRank and triangle counting read it. Node ids are
// translated to the dense domain so algorithms can use flat vectors.
package csr

import (
	"aion/internal/memgraph"
	"aion/internal/pool"
)

// Graph is an immutable CSR projection over dense node ids.
type Graph struct {
	N          int
	OutOffsets []int64
	OutTargets []int32
	InOffsets  []int64
	InTargets  []int32
	Dense      *memgraph.DenseMap
}

// Build projects a snapshot into CSR form, filling the adjacency of node
// ranges in parallel (on-the-fly CSR creation is parallelized when snapshots
// are retrieved, Sec 5.2).
func Build(g *memgraph.Graph) *Graph {
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

	// Pass 2: fill adjacency.
	pool.ParallelFor(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sid := dm.ToSparse[i]
			oo := c.OutOffsets[i]
			for _, rid := range g.Out(sid) {
				_, tgt, _ := g.Ends(rid)
				c.OutTargets[oo] = dm.ToDense[tgt]
				oo++
			}
			io := c.InOffsets[i]
			for _, rid := range g.In(sid) {
				src, _, _ := g.Ends(rid)
				c.InTargets[io] = dm.ToDense[src]
				io++
			}
		}
	})
	return c
}

// OutDegree returns the out-degree of dense node i.
func (c *Graph) OutDegree(i int32) int64 { return c.OutOffsets[i+1] - c.OutOffsets[i] }

// Out returns the dense out-neighbours of node i (not to be mutated).
func (c *Graph) Out(i int32) []int32 { return c.OutTargets[c.OutOffsets[i]:c.OutOffsets[i+1]] }

// In returns the dense in-neighbours of node i (not to be mutated).
func (c *Graph) In(i int32) []int32 { return c.InTargets[c.InOffsets[i]:c.InOffsets[i+1]] }
