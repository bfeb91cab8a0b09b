// Package algos implements the paper's nine benchmark kernels — NQ,
// BFS, DFS, SCC, SP, PageRank, DS, Kcore and Diameter — over the CSR
// graph substrate. Each kernel also has a traced variant (traced*.go)
// that issues its memory accesses through the cache simulator, which
// is how the cache-statistics experiments observe the effect of a
// vertex ordering.
package algos

import (
	"gorder/internal/bheap"
	"gorder/internal/gen"
	"gorder/internal/graph"
)

// Unreached marks vertices not reached by a traversal in distance
// arrays.
const Unreached int32 = -1

// NeighbourQuery is the paper's NQ kernel: for every vertex u it
// computes q_u, the sum of the out-degrees of u's out-neighbours. The
// arbitrary per-neighbour operation forces the neighbours' data into
// cache, which is what the kernel exists to measure.
func NeighbourQuery(g *graph.Graph) []int64 {
	n := g.NumNodes()
	q := make([]int64, n)
	for u := 0; u < n; u++ {
		var sum int64
		for _, v := range g.OutNeighbors(graph.NodeID(u)) {
			sum += int64(g.OutDegree(v))
		}
		q[u] = sum
	}
	return q
}

// BFSFrom runs a breadth-first search over out-edges from src and
// returns hop distances (Unreached where not reachable) and the number
// of vertices reached. Neighbours are visited in ascending ID
// (lexicographic) order, as the paper specifies.
func BFSFrom(g *graph.Graph, src graph.NodeID) (dist []int32, reached int) {
	n := g.NumNodes()
	dist = make([]int32, n)
	for i := range dist {
		dist[i] = Unreached
	}
	queue := make([]graph.NodeID, 0, n)
	dist[src] = 0
	queue = append(queue, src)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.OutNeighbors(u) {
			if dist[v] == Unreached {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist, len(queue)
}

// BFSAll traverses the whole graph breadth-first, restarting from the
// lowest-numbered unvisited vertex, and returns the visit sequence.
// This is the BFS benchmark kernel: it touches every vertex and edge.
func BFSAll(g *graph.Graph) []graph.NodeID {
	n := g.NumNodes()
	visited := make([]bool, n)
	seq := make([]graph.NodeID, 0, n)
	for s := 0; s < n; s++ {
		if visited[s] {
			continue
		}
		visited[s] = true
		start := len(seq)
		seq = append(seq, graph.NodeID(s))
		for head := start; head < len(seq); head++ {
			u := seq[head]
			for _, v := range g.OutNeighbors(u) {
				if !visited[v] {
					visited[v] = true
					seq = append(seq, v)
				}
			}
		}
	}
	return seq
}

// DFSAll traverses the whole graph depth-first (iterative, preorder),
// restarting from the lowest-numbered unvisited vertex, visiting
// neighbours in ascending ID order, and returns the visit sequence.
func DFSAll(g *graph.Graph) []graph.NodeID {
	n := g.NumNodes()
	visited := make([]bool, n)
	seq := make([]graph.NodeID, 0, n)
	stack := make([]graph.NodeID, 0, 64)
	for s := 0; s < n; s++ {
		if visited[s] {
			continue
		}
		stack = append(stack[:0], graph.NodeID(s))
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if visited[u] {
				continue
			}
			visited[u] = true
			seq = append(seq, u)
			adj := g.OutNeighbors(u)
			for i := len(adj) - 1; i >= 0; i-- {
				if !visited[adj[i]] {
					stack = append(stack, adj[i])
				}
			}
		}
	}
	return seq
}

// SCC computes strongly connected components with Tarjan's algorithm
// (iterative, so million-vertex graphs do not overflow the goroutine
// stack). It returns the component ID of every vertex and the number
// of components. Component IDs are assigned in completion order.
func SCC(g *graph.Graph) (comp []int32, count int) {
	n := g.NumNodes()
	const none = int32(-1)
	comp = make([]int32, n)
	index := make([]int32, n)
	lowlink := make([]int32, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = none
		comp[i] = none
	}
	var stack []graph.NodeID // Tarjan's SCC stack
	var nextIndex int32

	// Explicit DFS call frames: vertex plus position in its adjacency.
	type frame struct {
		v   graph.NodeID
		pos int
	}
	var frames []frame
	for s := 0; s < n; s++ {
		if index[s] != none {
			continue
		}
		frames = append(frames[:0], frame{graph.NodeID(s), 0})
		index[s] = nextIndex
		lowlink[s] = nextIndex
		nextIndex++
		stack = append(stack, graph.NodeID(s))
		onStack[s] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			adj := g.OutNeighbors(f.v)
			advanced := false
			for f.pos < len(adj) {
				w := adj[f.pos]
				f.pos++
				if index[w] == none {
					index[w] = nextIndex
					lowlink[w] = nextIndex
					nextIndex++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{w, 0})
					advanced = true
					break
				}
				if onStack[w] && index[w] < lowlink[f.v] {
					lowlink[f.v] = index[w]
				}
			}
			if advanced {
				continue
			}
			// f.v finished: pop its frame, emit component if root.
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := &frames[len(frames)-1]
				if lowlink[v] < lowlink[p.v] {
					lowlink[p.v] = lowlink[v]
				}
			}
			if lowlink[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = int32(count)
					if w == v {
						break
					}
				}
				count++
			}
		}
	}
	return comp, count
}

// BellmanFord is the paper's SP kernel: unit-weight shortest paths
// from src by repeated relaxation sweeps over all edges until a sweep
// changes nothing. Real-world graphs have small diameter, so the
// number of sweeps is small, but each sweep streams the whole CSR —
// the access pattern the ordering experiments measure.
func BellmanFord(g *graph.Graph, src graph.NodeID) []int32 {
	n := g.NumNodes()
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = Unreached
	}
	dist[src] = 0
	for {
		changed := false
		for u := 0; u < n; u++ {
			du := dist[u]
			if du == Unreached {
				continue
			}
			for _, v := range g.OutNeighbors(graph.NodeID(u)) {
				if dist[v] == Unreached || du+1 < dist[v] {
					dist[v] = du + 1
					changed = true
				}
			}
		}
		if !changed {
			return dist
		}
	}
}

// DefaultPageRankIters and DefaultDamping are the paper's PageRank
// parameters: 100 power iterations with damping 0.85.
const (
	DefaultPageRankIters = 100
	DefaultDamping       = 0.85
)

// PageRank runs the power-iteration PageRank for the given number of
// iterations. Each iteration pulls rank from in-neighbours (gather
// form), the memory-bound pattern the paper benchmarks. Dangling-mass
// is redistributed uniformly, so ranks sum to 1.
func PageRank(g *graph.Graph, iters int, damping float64) []float64 {
	n := g.NumNodes()
	if n == 0 {
		return nil
	}
	rank := make([]float64, n)
	next := make([]float64, n)
	contrib := make([]float64, n) // rank[u]*invDeg[u], refreshed per iteration
	// Reciprocal out-degrees and the dangling-vertex list are
	// loop-invariant: hoisting them replaces a division per vertex per
	// iteration with one division per vertex per run. Multiplying by the
	// reciprocal rounds differently from dividing, so ranks moved within
	// FP tolerance when this landed; all parity checks are
	// tolerance-based, and the parallel engine (internal/exec) matches
	// this exact op order bitwise.
	invDeg := make([]float64, n)
	var dangling []graph.NodeID
	for u := 0; u < n; u++ {
		if d := g.OutDegree(graph.NodeID(u)); d > 0 {
			invDeg[u] = 1 / float64(d)
		} else {
			dangling = append(dangling, graph.NodeID(u))
		}
	}
	for i := range rank {
		rank[i] = 1 / float64(n)
	}
	for it := 0; it < iters; it++ {
		for u := 0; u < n; u++ {
			contrib[u] = rank[u] * invDeg[u]
		}
		danglingMass := 0.0
		for _, u := range dangling {
			danglingMass += rank[u]
		}
		base := (1-damping)/float64(n) + damping*danglingMass/float64(n)
		for v := 0; v < n; v++ {
			sum := 0.0
			for _, u := range g.InNeighbors(graph.NodeID(v)) {
				sum += contrib[u]
			}
			next[v] = base + damping*sum
		}
		rank, next = next, rank
	}
	return rank
}

// DominatingSet computes a greedy dominating set: repeatedly take the
// vertex covering the most still-uncovered vertices (itself plus its
// out-neighbours), until everything is covered. Ties break to the
// lowest ID via the indexed heap's ordering on equal keys being
// unspecified — so ties are resolved explicitly by key encoding.
func DominatingSet(g *graph.Graph) []graph.NodeID {
	n := g.NumNodes()
	if n == 0 {
		return nil
	}
	covered := make([]bool, n)
	// gain[u] = number of uncovered vertices in {u} ∪ out(u).
	// Encode key as gain*n - u so the max-heap breaks ties toward
	// smaller IDs deterministically.
	h := bheap.Max(n)
	enc := func(u int, gain int64) int64 { return gain*int64(n) - int64(u) }
	gain := make([]int64, n)
	for u := 0; u < n; u++ {
		gain[u] = int64(g.OutDegree(graph.NodeID(u)) + 1)
		h.Push(u, enc(u, gain[u]))
	}
	var set []graph.NodeID
	remaining := n
	cover := func(v graph.NodeID) {
		if covered[v] {
			return
		}
		covered[v] = true
		remaining--
		// v no longer needs covering: every potential coverer of v
		// loses one gain. Those are v itself and v's in-neighbours.
		if h.Contains(int(v)) {
			gain[v]--
			h.Update(int(v), enc(int(v), gain[v]))
		}
		for _, x := range g.InNeighbors(v) {
			if h.Contains(int(x)) {
				gain[x]--
				h.Update(int(x), enc(int(x), gain[x]))
			}
		}
	}
	for remaining > 0 && h.Len() > 0 {
		u, _ := h.Pop()
		if gain[u] <= 0 {
			// u and its whole out-neighbourhood are covered (an
			// uncovered u always has gain >= 1 from itself).
			continue
		}
		set = append(set, graph.NodeID(u))
		cover(graph.NodeID(u))
		for _, v := range g.OutNeighbors(graph.NodeID(u)) {
			cover(v)
		}
	}
	return set
}

// CoreNumbers computes the k-core decomposition over total (in+out)
// degree using a binary heap, the structure the replication uses:
// repeatedly remove the minimum-degree vertex; its core number is the
// largest degree seen at any removal so far.
func CoreNumbers(g *graph.Graph) []int32 {
	u := g.Undirected()
	n := u.NumNodes()
	core := make([]int32, n)
	deg := make([]int64, n)
	h := bheap.Min(n)
	for v := 0; v < n; v++ {
		deg[v] = int64(u.OutDegree(graph.NodeID(v)))
		h.Push(v, deg[v])
	}
	var level int32
	for h.Len() > 0 {
		v, d := h.Pop()
		if int32(d) > level {
			level = int32(d)
		}
		core[v] = level
		for _, w := range u.OutNeighbors(graph.NodeID(v)) {
			if h.Contains(int(w)) && deg[w] > d {
				deg[w]--
				h.Update(int(w), deg[w])
			}
		}
	}
	return core
}

// DefaultDiameterSamples is a laptop-scale stand-in for the paper's
// 5000 shortest-path restarts.
const DefaultDiameterSamples = 20

// Diameter estimates the graph diameter the way the paper does: run
// the SP kernel from `samples` random sources and return the largest
// finite distance seen. Accuracy is not the point — the workload is.
func Diameter(g *graph.Graph, samples int, seed uint64) int32 {
	n := g.NumNodes()
	if n == 0 || samples <= 0 {
		return 0
	}
	rng := gen.NewRNG(seed)
	var diam int32
	for s := 0; s < samples; s++ {
		src := graph.NodeID(rng.Intn(n))
		dist := BellmanFord(g, src)
		for _, d := range dist {
			if d > diam {
				diam = d
			}
		}
	}
	return diam
}
