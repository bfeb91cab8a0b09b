package exec

import (
	"context"
	"sync/atomic"

	"gorder/internal/graph"
)

// The switching heuristics, identical to the serial DOBFS in
// internal/algos: go bottom-up when the frontier's out-edges exceed
// 1/alpha of the unexplored edges; return top-down when the frontier
// shrinks below n/beta vertices. Both inputs are set-derived (sizes
// and degree sums), so the parallel traversal takes exactly the same
// direction decisions as the serial one.
const (
	dobfsAlpha = 14
	dobfsBeta  = 24
)

// unvisited marks not-yet-reached vertices in the distance array while
// the traversal runs; it equals algos.Unreached.
const unvisited = int32(-1)

// DOBFS runs a direction-optimising BFS from src over `workers`
// goroutines and returns hop distances over out-edges (-1 where
// unreachable) plus the number of vertices reached — bit-identical to
// the serial algos.DOBFS and algos.BFSFrom at any worker count,
// because every vertex's distance is its BFS level regardless of which
// worker discovers it first.
//
// Top-down levels chunk the frontier: workers claim contiguous
// frontier segments, win vertices with an atomic compare-and-swap on
// the distance entry, and append discoveries to per-chunk segments
// that concatenate in chunk order. Bottom-up levels range-partition
// the vertex space along contiguous ordering windows: each worker
// scans only its own chunk's unvisited vertices (sole writer — no
// atomics on the stores it owns) looking for a parent on the previous
// level through the in-CSR.
func DOBFS(ctx context.Context, g *graph.Graph, src graph.NodeID, workers int, sc *Scratch) (dist []int32, reached int, err error) {
	n := g.NumNodes()
	if sc == nil {
		sc = new(Scratch)
	}
	dist = make([]int32, n)
	for i := range dist {
		dist[i] = unvisited
	}
	dist[src] = 0
	reached = 1

	frontier, next := sc.frontiers()
	defer func() { sc.storeFrontiers(frontier, next) }()
	frontier = append(frontier, src)
	frontierEdges := int64(g.OutDegree(src))
	unexploredEdges := g.NumEdges() - frontierEdges
	level := int32(0)

	outIdx, outAdj := g.OutIndex(), g.OutAdjacency()
	inIdx, inAdj := g.InIndex(), g.InAdjacency()

	for len(frontier) > 0 {
		level++
		next = next[:0]
		if frontierEdges > unexploredEdges/dobfsAlpha && len(frontier) > n/dobfsBeta {
			// Bottom-up: each chunk owns a contiguous vertex window;
			// only the owner writes those distances, everyone reads the
			// previous level's entries through atomic loads.
			chunks := ChunksFor(n)
			locals := sc.segments(chunks)
			degs := make([]int64, chunks)
			if err := ForChunks(ctx, workers, chunks, func(c int) {
				lo, hi := ChunkRange(n, chunks, c)
				buf := locals[c]
				var deg int64
				for v := lo; v < hi; v++ {
					if dist[v] != unvisited {
						continue
					}
					for p := inIdx[v]; p < inIdx[v+1]; p++ {
						u := inAdj[p]
						if atomic.LoadInt32(&dist[u]) == level-1 {
							atomic.StoreInt32(&dist[v], level)
							buf = append(buf, graph.NodeID(v))
							deg += outIdx[v+1] - outIdx[v]
							break
						}
					}
				}
				locals[c], degs[c] = buf, deg
			}); err != nil {
				return nil, 0, err
			}
			frontierEdges = 0
			for c, buf := range locals {
				next = append(next, buf...)
				frontierEdges += degs[c]
			}
		} else {
			// Top-down: chunk the frontier; discoveries are won by CAS
			// so each vertex lands in exactly one chunk's segment.
			chunks := ChunksFor(len(frontier))
			locals := sc.segments(chunks)
			degs := make([]int64, chunks)
			if err := ForChunks(ctx, workers, chunks, func(c int) {
				lo, hi := ChunkRange(len(frontier), chunks, c)
				buf := locals[c]
				var deg int64
				for _, u := range frontier[lo:hi] {
					for p := outIdx[u]; p < outIdx[u+1]; p++ {
						v := outAdj[p]
						if atomic.LoadInt32(&dist[v]) == unvisited &&
							atomic.CompareAndSwapInt32(&dist[v], unvisited, level) {
							buf = append(buf, v)
							deg += outIdx[v+1] - outIdx[v]
						}
					}
				}
				locals[c], degs[c] = buf, deg
			}); err != nil {
				return nil, 0, err
			}
			frontierEdges = 0
			for c, buf := range locals {
				next = append(next, buf...)
				frontierEdges += degs[c]
			}
		}
		reached += len(next)
		unexploredEdges -= frontierEdges
		if unexploredEdges < 0 {
			unexploredEdges = 0
		}
		frontier, next = next, frontier
	}
	return dist, reached, nil
}
