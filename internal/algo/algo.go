// Package algo implements the graph algorithms Aion's evaluation exercises:
// BFS, single-source shortest paths, PageRank, weakly connected components,
// triangle counting, local clustering coefficients (Secs 3, 6.6), and the
// temporal path algorithms of Fig 2 (earliest-arrival and latest-departure
// paths, solved with a single scan over time-ordered relationships).
package algo

import (
	"container/heap"
	"math"
	"runtime"
	"sort"
	"sync"

	"aion/internal/csr"
	"aion/internal/memgraph"
	"aion/internal/model"
	"aion/internal/pool"
)

// Unreachable marks a node not reached by a traversal.
const Unreachable = int32(-1)

// BFS computes hop distances from src over outgoing edges of a snapshot.
// The result is indexed by sparse node id; Unreachable where no path (or no
// node) exists. The frontier uses a pre-allocated ring buffer instead of an
// allocating queue (Sec 5.3).
func BFS(g *memgraph.Graph, src model.NodeID) []int32 {
	levels := make([]int32, g.MaxNodeID())
	for i := range levels {
		levels[i] = Unreachable
	}
	if g.Node(src) == nil {
		return levels
	}
	levels[src] = 0
	queue := pool.NewRing(1024)
	queue.Push(int64(src))
	for {
		v, ok := queue.Pop()
		if !ok {
			break
		}
		cur := model.NodeID(v)
		next := levels[cur] + 1
		g.Neighbours(cur, model.Outgoing, func(_ *model.Rel, nb model.NodeID) bool {
			if levels[nb] == Unreachable {
				levels[nb] = next
				queue.Push(int64(nb))
			}
			return true
		})
	}
	return levels
}

// SSSP computes shortest path distances from src using Dijkstra over the
// given relationship weight property (missing weights default to 1).
// Unreachable nodes get +Inf.
func SSSP(g *memgraph.Graph, src model.NodeID, weightProp string) []float64 {
	dist := make([]float64, g.MaxNodeID())
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	if g.Node(src) == nil {
		return dist
	}
	dist[src] = 0
	pq := &distHeap{{src, 0}}
	for pq.Len() > 0 {
		item := heap.Pop(pq).(distItem)
		if item.d > dist[item.id] {
			continue
		}
		g.Neighbours(item.id, model.Outgoing, func(r *model.Rel, nb model.NodeID) bool {
			w := 1.0
			if v, ok := r.Props[weightProp]; ok {
				w = v.Float()
			}
			if nd := item.d + w; nd < dist[nb] {
				dist[nb] = nd
				heap.Push(pq, distItem{nb, nd})
			}
			return true
		})
	}
	return dist
}

type distItem struct {
	id model.NodeID
	d  float64
}

type distHeap []distItem

func (h distHeap) Len() int            { return len(h) }
func (h distHeap) Less(i, j int) bool  { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x interface{}) { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// PageRankOptions configures PageRank runs.
type PageRankOptions struct {
	Damping float64 // default 0.85
	MaxIter int     // default 100 (the paper's cap, Sec 6.6)
	Epsilon float64 // convergence threshold; default 0.01 (the paper's ε)
	Workers int     // parallel workers; default GOMAXPROCS
}

func (o *PageRankOptions) defaults() {
	if o.Damping == 0 {
		o.Damping = 0.85
	}
	if o.MaxIter == 0 {
		o.MaxIter = 100
	}
	if o.Epsilon == 0 {
		o.Epsilon = 0.01
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
}

// PageRank runs parallel PageRank over a CSR projection, returning ranks by
// dense node id and the number of iterations executed.
func PageRank(c *csr.Graph, opts PageRankOptions) ([]float64, int) {
	opts.defaults()
	n := c.N
	if n == 0 {
		return nil, 0
	}
	ranks := make([]float64, n)
	for i := range ranks {
		ranks[i] = 1.0 / float64(n)
	}
	return pageRankFrom(c, ranks, opts)
}

// pageRankFrom iterates PageRank starting from the given rank vector (the
// warm-start entry point incremental execution uses).
func pageRankFrom(c *csr.Graph, ranks []float64, opts PageRankOptions) ([]float64, int) {
	opts.defaults()
	n := c.N
	next := make([]float64, n)
	iters := 0
	for ; iters < opts.MaxIter; iters++ {
		// Dangling mass is redistributed uniformly.
		var dangling float64
		for i := int32(0); i < int32(n); i++ {
			if c.OutDegree(i) == 0 {
				dangling += ranks[i]
			}
		}
		base := (1-opts.Damping)/float64(n) + opts.Damping*dangling/float64(n)
		parallelFor(n, opts.Workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				sum := 0.0
				for _, u := range c.In(int32(i)) {
					sum += ranks[u] / float64(c.OutDegree(u))
				}
				next[i] = base + opts.Damping*sum
			}
		})
		var delta float64
		for i := range ranks {
			delta += math.Abs(next[i] - ranks[i])
		}
		ranks, next = next, ranks
		if delta < opts.Epsilon {
			iters++
			break
		}
	}
	return ranks, iters
}

// PageRankDynamic runs PageRank directly on the dynamic in-memory graph
// representation, without building a CSR projection first — the execution
// mode Sec 5.2/6.7 uses for incremental analytics, where the projection
// cost would dominate warm-started runs. warm maps sparse node ids to
// starting ranks (missing nodes get the uniform share); the result is a
// rank per live sparse node id.
func PageRankDynamic(g *memgraph.Graph, warm map[model.NodeID]float64, opts PageRankOptions) (map[model.NodeID]float64, int) {
	opts.defaults()
	dm := g.BuildDenseMap()
	n := dm.Len()
	if n == 0 {
		return map[model.NodeID]float64{}, 0
	}
	ranks := make([]float64, n)
	uniform := 1.0 / float64(n)
	var total float64
	for i, sid := range dm.ToSparse {
		if r, ok := warm[sid]; ok && r > 0 {
			ranks[i] = r
		} else {
			ranks[i] = uniform
		}
		total += ranks[i]
	}
	for i := range ranks { // renormalize the warm vector to sum 1
		ranks[i] /= total
	}
	outDeg := make([]float64, n)
	for i, sid := range dm.ToSparse {
		outDeg[i] = float64(len(g.Out(sid)))
	}
	next := make([]float64, n)
	iters := 0
	for ; iters < opts.MaxIter; iters++ {
		var dangling float64
		for i := 0; i < n; i++ {
			if outDeg[i] == 0 {
				dangling += ranks[i]
			}
		}
		base := (1-opts.Damping)/float64(n) + opts.Damping*dangling/float64(n)
		parallelFor(n, opts.Workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				sum := 0.0
				for _, rid := range g.In(dm.ToSparse[i]) {
					src := dm.ToDense[g.Rel(rid).Src]
					sum += ranks[src] / outDeg[src]
				}
				next[i] = base + opts.Damping*sum
			}
		})
		var delta float64
		for i := range ranks {
			delta += math.Abs(next[i] - ranks[i])
		}
		ranks, next = next, ranks
		if delta < opts.Epsilon {
			iters++
			break
		}
	}
	out := make(map[model.NodeID]float64, n)
	for i, sid := range dm.ToSparse {
		out[sid] = ranks[i]
	}
	return out, iters
}

func parallelFor(n, workers int, fn func(lo, hi int)) {
	if workers <= 1 || n < 2048 {
		fn(0, n)
		return
	}
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
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// WCC computes weakly connected components with union-find, returning a
// component id per sparse node id (-1 for absent nodes).
func WCC(g *memgraph.Graph) []int32 {
	n := int(g.MaxNodeID())
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	g.ForEachRel(func(r *model.Rel) bool {
		a, b := find(int32(r.Src)), find(int32(r.Tgt))
		if a != b {
			parent[b] = a
		}
		return true
	})
	out := make([]int32, n)
	for i := range out {
		if g.Node(model.NodeID(i)) == nil {
			out[i] = -1
			continue
		}
		out[i] = find(int32(i))
	}
	return out
}

// TriangleCount counts undirected triangles in a CSR projection, treating
// each edge as undirected and ignoring duplicates and self-loops.
func TriangleCount(c *csr.Graph) int64 {
	// Build sorted undirected neighbour lists.
	adj := make([][]int32, c.N)
	for i := int32(0); i < int32(c.N); i++ {
		seen := map[int32]bool{}
		for _, t := range c.Out(i) {
			if t != i && !seen[t] {
				seen[t] = true
				adj[i] = append(adj[i], t)
			}
		}
		for _, t := range c.In(i) {
			if t != i && !seen[t] {
				seen[t] = true
				adj[i] = append(adj[i], t)
			}
		}
		sort.Slice(adj[i], func(a, b int) bool { return adj[i][a] < adj[i][b] })
	}
	var total int64
	for u := int32(0); u < int32(c.N); u++ {
		for _, v := range adj[u] {
			if v <= u {
				continue
			}
			// Count common neighbours w > v by merging sorted lists.
			a, b := adj[u], adj[v]
			i, j := 0, 0
			for i < len(a) && j < len(b) {
				switch {
				case a[i] < b[j]:
					i++
				case a[i] > b[j]:
					j++
				default:
					if a[i] > v {
						total++
					}
					i++
					j++
				}
			}
		}
	}
	return total
}

// LocalClusteringCoefficient computes the clustering coefficient of one
// node over the undirected neighbourhood.
func LocalClusteringCoefficient(g *memgraph.Graph, id model.NodeID) float64 {
	nbs := map[model.NodeID]bool{}
	g.Neighbours(id, model.Both, func(_ *model.Rel, nb model.NodeID) bool {
		if nb != id {
			nbs[nb] = true
		}
		return true
	})
	k := len(nbs)
	if k < 2 {
		return 0
	}
	links := 0
	for nb := range nbs {
		g.Neighbours(nb, model.Both, func(_ *model.Rel, nn model.NodeID) bool {
			if nn != nb && nbs[nn] {
				links++
			}
			return true
		})
	}
	// Each link counted twice (once from each endpoint).
	return float64(links) / float64(k*(k-1))
}
