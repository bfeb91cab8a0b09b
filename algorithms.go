package gorder

import (
	"context"

	"gorder/internal/algos"
	"gorder/internal/exec"
)

// The paper's nine benchmark kernels, exposed for direct use. All of
// them run unmodified on any vertex order — that is the point: the
// ordering changes their speed, not their code or results.

// NeighbourQuery computes, for every vertex, the sum of the
// out-degrees of its out-neighbours (the paper's NQ kernel).
func NeighbourQuery(g *Graph) []int64 { return algos.NeighbourQuery(g) }

// BFS runs a breadth-first search from src over out-edges and returns
// hop distances (-1 where unreachable) and the number of vertices
// reached.
func BFS(g *Graph, src NodeID) (dist []int32, reached int) { return algos.BFSFrom(g, src) }

// BFSAll traverses the whole graph breadth-first (restarting at the
// lowest unvisited vertex) and returns the visit sequence.
func BFSAll(g *Graph) []NodeID { return algos.BFSAll(g) }

// DFSAll traverses the whole graph depth-first (preorder) and returns
// the visit sequence.
func DFSAll(g *Graph) []NodeID { return algos.DFSAll(g) }

// SCC computes strongly connected components (Tarjan) and returns the
// component of each vertex plus the component count.
func SCC(g *Graph) (comp []int32, count int) { return algos.SCC(g) }

// ShortestPaths computes unit-weight shortest paths from src with the
// paper's Bellman–Ford kernel (-1 where unreachable).
func ShortestPaths(g *Graph, src NodeID) []int32 { return algos.BellmanFord(g, src) }

// PageRank runs power-iteration PageRank (pull form) for iters
// iterations with the given damping factor; ranks sum to 1.
func PageRank(g *Graph, iters int, damping float64) []float64 {
	return algos.PageRank(g, iters, damping)
}

// DominatingSet computes a greedy dominating set: every vertex is in
// the set or an out-neighbour of a member.
func DominatingSet(g *Graph) []NodeID { return algos.DominatingSet(g) }

// CoreNumbers computes the k-core decomposition over total degree.
func CoreNumbers(g *Graph) []int32 { return algos.CoreNumbers(g) }

// Diameter estimates the diameter by running ShortestPaths from
// `samples` random sources and keeping the largest finite distance.
func Diameter(g *Graph, samples int, seed uint64) int32 { return algos.Diameter(g, samples, seed) }

// WCC computes weakly connected components (directions ignored) and
// returns each vertex's component plus the component count.
func WCC(g *Graph) (comp []int32, count int) { return algos.WCC(g) }

// TriangleCount counts the triangles of g's undirected view.
func TriangleCount(g *Graph) int64 { return algos.TriangleCount(g) }

// LabelPropagation runs deterministic label-propagation community
// detection (maxIters <= 0 selects the default bound) and returns
// dense community labels plus the community count.
func LabelPropagation(g *Graph, maxIters int) (labels []int32, communities int) {
	return algos.LabelPropagation(g, maxIters)
}

// DOBFS runs a direction-optimising BFS (Beamer-style top-down /
// bottom-up switching) from src, returning the same distances as BFS
// with far fewer edge examinations on low-diameter graphs.
func DOBFS(g *Graph, src NodeID) (dist []int32, reached int) { return algos.DOBFS(g, src) }

// RandomWeights returns deterministic per-edge weights in
// [1, maxWeight] aligned with g's CSR edge order, hashed from edge
// endpoints so the same logical edge always gets the same weight.
func RandomWeights(g *Graph, maxWeight int32, seed uint64) []int32 {
	return algos.RandomWeights(g, maxWeight, seed)
}

// DijkstraWeighted computes single-source shortest paths over
// non-negative weights (aligned with the CSR edge order); -1 marks
// unreachable vertices.
func DijkstraWeighted(g *Graph, weights []int32, src NodeID) []int64 {
	return algos.DijkstraWeighted(g, weights, src)
}

// BellmanFordWeighted computes single-source shortest paths by
// relaxation sweeps (negative edges allowed); ok is false if a
// reachable negative cycle exists.
func BellmanFordWeighted(g *Graph, weights []int32, src NodeID) (dist []int64, ok bool) {
	return algos.BellmanFordWeighted(g, weights, src)
}

// Betweenness approximates betweenness centrality (Brandes–Pich) from
// `samples` random sources; samples >= NumNodes computes it exactly.
func Betweenness(g *Graph, samples int, seed uint64) []float64 {
	return algos.Betweenness(g, samples, seed)
}

// BetweennessExact computes exact betweenness centrality over
// unit-weight directed shortest paths (Brandes, O(n·m)).
func BetweennessExact(g *Graph) []float64 { return algos.BetweennessExact(g) }

// ---- parallel kernels ---------------------------------------------------
//
// The multicore variants run on the internal/exec engine: the vertex
// space is partitioned into contiguous chunks of the current ordering,
// so each worker's working set is a Gorder-localized window and the
// cache wins compound with the parallelism. workers <= 0 selects
// GOMAXPROCS. Results are identical to the serial kernels above at any
// worker count (bit-identical distances, counts, and — because the
// only cross-range float reduction is kept serial — PageRank values),
// so callers may switch between serial and parallel freely. The ctx
// deadline is polled between work chunks; cancellation returns
// ctx.Err() with a nil result.

// PageRankParallel is the multicore PageRank; its ranks equal
// PageRank's bit for bit.
func PageRankParallel(ctx context.Context, g *Graph, iters int, damping float64, workers int) ([]float64, error) {
	return exec.PageRank(ctx, g, iters, damping, workers, nil)
}

// DOBFSParallel is the multicore direction-optimizing BFS; distances
// equal DOBFS's (and BFS's) bit for bit.
func DOBFSParallel(ctx context.Context, g *Graph, src NodeID, workers int) (dist []int32, reached int, err error) {
	return exec.DOBFS(ctx, g, src, workers, nil)
}

// ShortestPathsParallel is the multicore unit-weight SSSP: unit-weight
// distances are BFS levels, so it runs the direction-optimizing BFS of
// DOBFSParallel; distances equal ShortestPaths's.
func ShortestPathsParallel(ctx context.Context, g *Graph, src NodeID, workers int) ([]int32, error) {
	return exec.ShortestPaths(ctx, g, src, workers, nil)
}

// DeltaStepping is the multicore weighted SSSP (Meyer–Sanders
// delta-stepping with lazy buckets). weights aligns with the CSR
// out-adjacency as in DijkstraWeighted; nil means unit weights;
// delta <= 0 picks the average edge weight. Distances equal
// DijkstraWeighted's exactly.
func DeltaStepping(ctx context.Context, g *Graph, weights []int32, src NodeID, delta int64, workers int) ([]int64, error) {
	return exec.DeltaStepping(ctx, g, weights, src, delta, workers, nil)
}

// TriangleCountParallel is the multicore triangle count; it equals
// TriangleCount exactly.
func TriangleCountParallel(ctx context.Context, g *Graph, workers int) (int64, error) {
	return exec.TriangleCount(ctx, g, workers, nil)
}
