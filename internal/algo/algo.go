// Package algo implements the graph algorithms Aion's evaluation exercises:
// BFS, single-source shortest paths, PageRank, weakly connected components,
// triangle counting, local clustering coefficients (Secs 3, 6.6), and the
// temporal path algorithms of Fig 2 (earliest-arrival and latest-departure
// paths, solved with a single scan over time-ordered relationships).
package algo

import (
	"container/heap"
	"math"
	"sort"

	"aion/internal/csr"
	"aion/internal/memgraph"
	"aion/internal/model"
	"aion/internal/pool"
)

// Unreachable marks a node not reached by a traversal.
const Unreachable = int32(-1)

// BFS computes hop distances from src over outgoing edges of a snapshot.
// The result is indexed by sparse node id; Unreachable where no path (or no
// node) exists.
func BFS(g *memgraph.Graph, src model.NodeID) []int32 {
	levels := make([]int32, g.MaxNodeID())
	for i := range levels {
		levels[i] = Unreachable
	}
	if g.HasNode(src) {
		levels[src] = 0
		RelaxBFS(g, levels, []model.NodeID{src})
	}
	return levels
}

// RelaxBFS is the BFS kernel, for a full run and an incremental repair
// alike: from the frontier's nodes it lowers, over outgoing edges, every
// level that one more hop improves, and goes on from each node it lowered.
// levels covers g's node ids; a frontier node at Unreachable is skipped, and
// the frontier's backing array becomes the queue.
func RelaxBFS(g *memgraph.Graph, levels []int32, frontier []model.NodeID) {
	queue := frontier
	for i := 0; i < len(queue); i++ {
		cur := queue[i]
		if levels[cur] == Unreachable {
			continue
		}
		next := levels[cur] + 1
		g.EachNeighbour(cur, model.Outgoing, func(_ model.RelID, nb model.NodeID) bool {
			if levels[nb] == Unreachable || levels[nb] > next {
				levels[nb] = next
				queue = append(queue, nb)
			}
			return true
		})
	}
}

// Weight is relationship rid's weight in g under the property prop: its value
// as a float, 1 where it does not have it.
func Weight(g *memgraph.Graph, rid model.RelID, prop string) float64 {
	if v, ok := g.RelProp(rid, prop); ok {
		return v.Float()
	}
	return 1
}

// SSSP computes shortest path distances from src using Dijkstra over the
// given relationship weight property (see Weight). Unreachable nodes get
// +Inf.
func SSSP(g *memgraph.Graph, src model.NodeID, weightProp string) []float64 {
	dist := make([]float64, g.MaxNodeID())
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	if g.HasNode(src) {
		dist[src] = 0
		RelaxSSSP(g, weightProp, dist, []model.NodeID{src})
	}
	return dist
}

// RelaxSSSP is the Dijkstra kernel, for a full run and an incremental
// repair alike: it queues each seed at its current distance (+Inf seeds are
// skipped), then settles nodes in distance order, lowering every distance an
// outgoing edge improves. A queued entry counts only while it equals its
// node's distance: a repair may have lowered or reset the distance since.
func RelaxSSSP(g *memgraph.Graph, prop string, dist []float64, seeds []model.NodeID) {
	pq := make(distHeap, 0, len(seeds))
	for _, id := range seeds {
		if !math.IsInf(dist[id], 1) {
			pq = append(pq, distItem{id, dist[id]})
		}
	}
	heap.Init(&pq)
	for pq.Len() > 0 {
		item := heap.Pop(&pq).(distItem)
		if item.d != dist[item.id] {
			continue
		}
		g.EachNeighbour(item.id, model.Outgoing, func(rid model.RelID, nb model.NodeID) bool {
			if nd := item.d + Weight(g, rid, prop); nd < dist[nb] {
				dist[nb] = nd
				heap.Push(&pq, distItem{nb, nd})
			}
			return true
		})
	}
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

// damping is PageRank's damping factor, the usual 0.85.
const damping = 0.85

// PageRankOptions configures PageRank runs.
type PageRankOptions struct {
	MaxIter int     // default 100 (the paper's cap, Sec 6.6)
	Epsilon float64 // convergence threshold; default 0.01 (the paper's ε)
}

func (o *PageRankOptions) defaults() {
	if o.MaxIter == 0 {
		o.MaxIter = 100
	}
	if o.Epsilon == 0 {
		o.Epsilon = 0.01
	}
}

// PageRank runs parallel PageRank over a CSR projection, returning ranks by
// dense node id and the number of iterations executed.
func PageRank(c *csr.Graph, opts PageRankOptions) ([]float64, int) {
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

// pageRankFrom iterates PageRank over a CSR projection starting from the
// given rank vector.
func pageRankFrom(c *csr.Graph, ranks []float64, opts PageRankOptions) ([]float64, int) {
	outDeg := make([]float64, c.N)
	for i := range outDeg {
		outDeg[i] = float64(c.OutDegree(int32(i)))
	}
	return powerIterate(ranks, outDeg, opts, func(ranks []float64, i int) (sum float64) {
		for _, u := range c.In(int32(i)) {
			sum += ranks[u] / outDeg[u]
		}
		return sum
	})
}

// PageRankDynamic runs PageRank directly on the dynamic in-memory graph
// representation, without building a CSR projection first — the execution
// mode Sec 5.2/6.7 uses for incremental analytics, where the projection
// cost would dominate warm-started runs. warm maps sparse node ids to
// starting ranks (missing nodes get the uniform share); the result is a
// rank per live sparse node id.
func PageRankDynamic(g *memgraph.Graph, warm map[model.NodeID]float64, opts PageRankOptions) (map[model.NodeID]float64, int) {
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
	ranks, iters := powerIterate(ranks, outDeg, opts, func(ranks []float64, i int) (sum float64) {
		for _, rid := range g.In(dm.ToSparse[i]) {
			s, _, _ := g.Ends(rid)
			src := dm.ToDense[s]
			sum += ranks[src] / outDeg[src]
		}
		return sum
	})
	out := make(map[model.NodeID]float64, n)
	for i, sid := range dm.ToSparse {
		out[sid] = ranks[i]
	}
	return out, iters
}

// powerIterate is PageRank's power iteration over dense ids from ranks, on
// GOMAXPROCS workers: inShare(ranks, i) is node i's in-neighbours' share,
// the sum of ranks[u]/outDeg[u] over them, and the rank of a node without
// out-edges is spread uniformly. It stops after MaxIter iterations or once
// an iteration moves the ranks by less than Epsilon in sum.
func powerIterate(ranks, outDeg []float64, opts PageRankOptions, inShare func(ranks []float64, i int) float64) ([]float64, int) {
	opts.defaults()
	n := len(ranks)
	next := make([]float64, n)
	iters := 0
	for ; iters < opts.MaxIter; iters++ {
		var dangling float64
		for i, d := range outDeg {
			if d == 0 {
				dangling += ranks[i]
			}
		}
		base := (1-damping)/float64(n) + damping*dangling/float64(n)
		pool.ParallelFor(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				next[i] = base + damping*inShare(ranks, i)
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
	for rid := range g.MaxRelID() {
		if src, tgt, ok := g.Ends(rid); ok {
			if a, b := find(int32(src)), find(int32(tgt)); a != b {
				parent[b] = a
			}
		}
	}
	out := make([]int32, n)
	for i := range out {
		if !g.HasNode(model.NodeID(i)) {
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
// node over the undirected neighbourhood: the share of its neighbour pairs
// that are linked, each pair counted once however many relationships, in
// either direction, link it.
func LocalClusteringCoefficient(g *memgraph.Graph, id model.NodeID) float64 {
	nbs := map[model.NodeID]bool{}
	g.EachNeighbour(id, model.Both, func(_ model.RelID, nb model.NodeID) bool {
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
		linked := map[model.NodeID]bool{}
		g.EachNeighbour(nb, model.Both, func(_ model.RelID, nn model.NodeID) bool {
			if nn > nb && nbs[nn] && !linked[nn] { // the pair once, from its lower end
				linked[nn] = true
				links++
			}
			return true
		})
	}
	return 2 * float64(links) / float64(k*(k-1))
}
