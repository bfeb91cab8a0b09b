package main

import (
	"fmt"
	"math/rand/v2"
	"strconv"

	"gorder/internal/algos"
	"gorder/internal/gen"
	"gorder/internal/graph"
)

// Every run executes a fixed operation list generated from the seed,
// never a fixed duration: the same seed gives the same graphs, keys
// and edit batches, so the state a run builds (lineage versions,
// manifest size, resident graphs) is the same on every run.

// Workload sizes.
const (
	readGraphNodes   = 100000 // query-cold / query-hot: ~1M edges
	writeGraphNodes  = 6000   // write-mix sessions: ~60k edges
	probeGraphNodes  = 4000   // write probe of the read workloads: ~40k edges
	writeEdits       = 1      // edit batches per write-mix session
	probeEdits       = 1      // edit batches per probe session
	readsPerVersion  = 5      // reader BFS queries per published version
	minWriteSessions = 100    // order_p90_ms needs 100 order jobs
	minColdQueries   = 1000   // query_p99_ms needs 1000 queries
	hotRepeats       = 90     // repeats of each hot shape per run-second
)

// rngFor derives an independent stream per purpose from the run seed.
func rngFor(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// queryOp is one POST /query. Source is -1 for kernels without one.
type queryOp struct {
	Kernel string
	Source int
	Iters  int
	Top    int
}

// resultKey is the daemon's result-cache identity of the query:
// kernel plus canonical parameters (top only shapes the answer).
func (q queryOp) resultKey() string {
	return q.Kernel + "|" + strconv.Itoa(q.Source) + "|" + strconv.Itoa(q.Iters)
}

func (q queryOp) request(graphRef string) queryRequest {
	r := queryRequest{Graph: graphRef, Kernel: q.Kernel, Iters: q.Iters, Top: q.Top}
	if q.Source >= 0 {
		src := q.Source
		r.Source = &src
	}
	return r
}

// coldOps returns query-cold's warm-up queries and its timed list of
// total queries: BFS and SP from distinct sources and PR with distinct
// iteration counts, shuffled. No result key repeats, warm-up included,
// so every timed query misses the daemon's result cache.
func coldOps(seed uint64, n, total int) (warm, ops []queryOp) {
	rng := rngFor(seed, 1)
	nPR := total * 3 / 100
	nBFS := (total - nPR) / 2
	nSP := total - nPR - nBFS
	perm := rng.Perm(n)
	warm = []queryOp{{Kernel: "BFS", Source: perm[0]}, {Kernel: "SP", Source: perm[1]}}
	src := perm[2:]
	for i := 0; i < nBFS; i++ {
		ops = append(ops, queryOp{Kernel: "BFS", Source: src[i]})
	}
	for i := 0; i < nSP; i++ {
		ops = append(ops, queryOp{Kernel: "SP", Source: src[nBFS+i]})
	}
	for i := 1; i <= nPR; i++ {
		ops = append(ops, queryOp{Kernel: "PR", Source: -1, Iters: i})
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return warm, ops
}

// hotShapes is query-hot's fixed key set: 20 BFS and 20 SP sources,
// PR and Tri, some asking for top-K values so that answer shaping and
// JSON encoding do work. The three PR shapes share one result key. The
// costliest shape, PR's top 100, is one in 44 queries, so query_p99_ms
// falls inside that shape's latency distribution instead of on the
// tail of the whole mix.
func hotShapes(seed uint64, n int) []queryOp {
	perm := rngFor(seed, 2).Perm(n)
	var shapes []queryOp
	for i := 0; i < 20; i++ {
		top := 0
		if i < 4 {
			top = 10
		}
		shapes = append(shapes, queryOp{Kernel: "BFS", Source: perm[i], Top: top})
		shapes = append(shapes, queryOp{Kernel: "SP", Source: perm[20+i], Top: top})
	}
	for _, top := range []int{0, 10, 100} {
		shapes = append(shapes, queryOp{Kernel: "PR", Source: -1, Iters: 10, Top: top})
	}
	return append(shapes, queryOp{Kernel: "Tri", Source: -1})
}

// hotOps repeats every shape the same number of times, shuffled, so the
// per-shape mix is identical on every seed.
func hotOps(seed uint64, shapes []queryOp, repeats int) []queryOp {
	ops := make([]queryOp, 0, len(shapes)*repeats)
	for r := 0; r < repeats; r++ {
		ops = append(ops, shapes...)
	}
	rng := rngFor(seed, 3)
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// distinctKeys reports the first result key that repeats in ops.
func distinctKeys(ops []queryOp) error {
	seen := make(map[string]bool, len(ops))
	for _, q := range ops {
		k := q.resultKey()
		if seen[k] {
			return fmt.Errorf("result key %s repeats", k)
		}
		seen[k] = true
	}
	return nil
}

// ---- write sessions ------------------------------------------------------

// readOp is one reader BFS query with its expected answer.
type readOp struct {
	Source  int
	Reached float64
	Ecc     float64
}

// graphCounts is the node and edge count a response must report.
type graphCounts struct {
	Nodes int
	Edges int64
}

// session is one writer session: upload a graph, order it with
// gorder, then apply edit batches to its lineage. Reads[0] are the
// reader's queries on v1 once ordered, Reads[i] those on the version
// batch i builds.
type session struct {
	Name    string
	Text    []byte
	Upload  graphCounts
	Batches []editRequest
	Expect  []graphCounts
	Reads   [][]readOp
}

// planSessions generates the writer's sessions. Each uploads a graph
// from a distinct seed, so every order job computes. Expected counts
// come from replaying the batches locally with graph.ApplyEdits and
// expected reader answers from algos.BFSFrom on each version's natural
// graph, so the run's checks are lookups.
func planSessions(seed uint64, prefix string, sessions, nodes, edits, reads int) ([]session, error) {
	rng := rngFor(seed, 4)
	out := make([]session, sessions)
	for i := range out {
		s := &out[i]
		s.Name = fmt.Sprintf("%s-%03d", prefix, i)
		s.Text = edgeListText(webGraph(nodes, rng.Uint64()))
		g, err := graph.ReadEdgeListBytes(s.Text)
		if err != nil {
			return nil, err
		}
		s.Upload = graphCounts{g.NumNodes(), g.NumEdges()}
		s.Reads = append(s.Reads, planReads(rng, g, s.Upload.Nodes, reads))
		for b := 0; b < edits; b++ {
			req, add, del := editBatch(rng, g)
			g, _, err = graph.ApplyEdits(g, req.AddNodes, add, del)
			if err != nil {
				return nil, err
			}
			s.Batches = append(s.Batches, req)
			s.Expect = append(s.Expect, graphCounts{g.NumNodes(), g.NumEdges()})
			s.Reads = append(s.Reads, planReads(rng, g, s.Upload.Nodes, reads))
		}
	}
	return out, nil
}

// planReads picks distinct BFS sources among the first n vertices and
// records their expected answers on g.
func planReads(rng *rand.Rand, g *graph.Graph, n, reads int) []readOp {
	if reads == 0 {
		return nil
	}
	out := make([]readOp, reads)
	for i, src := range rng.Perm(n)[:reads] {
		r, e := bfsSummary(g, src)
		out[i] = readOp{Source: src, Reached: r, Ecc: e}
	}
	return out
}

// bfsSummary is the oracle for a BFS query's summary.
func bfsSummary(g *graph.Graph, src int) (reached, ecc float64) {
	dist, n := algos.BFSFrom(g, graph.NodeID(src))
	var max int32
	for _, d := range dist {
		if d > max {
			max = d
		}
	}
	return float64(n), float64(max)
}

// editBatch builds one edit batch against g, sized so the tracked
// ordering decay crosses the daemon's default 0.93 repair threshold in
// one batch, to about 0.9: 10% new vertices, each linked to and from
// six random existing vertices, which the carried-forward ordering can
// only append at its end; random insertions between existing vertices
// (1% of the edges) and deletions (0.5%). The old-vertex churn stays
// under the daemon's dirty-tracking cap, so the repair it triggers is
// an incremental suffix repair, not a full recompute.
func editBatch(rng *rand.Rand, g *graph.Graph) (editRequest, []graph.Edge, []graph.Edge) {
	n, m := g.NumNodes(), int(g.NumEdges())
	req := editRequest{AddNodes: n / 10}
	var add, del []graph.Edge
	edge := func(list *[]graph.Edge, specs *[]edgeSpec, u, v int) {
		*list = append(*list, graph.Edge{From: graph.NodeID(u), To: graph.NodeID(v)})
		*specs = append(*specs, edgeSpec{From: u, To: v})
	}
	for v := n; v < n+req.AddNodes; v++ {
		for j := 0; j < 6; j++ {
			edge(&add, &req.Add, v, rng.IntN(n))
			edge(&add, &req.Add, rng.IntN(n), v)
		}
	}
	for j := 0; j < m/100; j++ {
		edge(&add, &req.Add, rng.IntN(n), rng.IntN(n))
	}
	for j := 0; j < m/200; j++ {
		u := rng.IntN(n)
		if out := g.OutNeighbors(graph.NodeID(u)); len(out) > 0 {
			edge(&del, &req.Del, u, int(out[rng.IntN(len(out))]))
		}
	}
	return req, add, del
}

// webGraph is the workloads' graph family: the copying-model web graph
// with the generator's default parameters, ~10 edges per vertex.
func webGraph(n int, seed uint64) *graph.Graph {
	return gen.Web(n, gen.DefaultWeb, seed)
}

// edgeListText renders g as the text edge list gorderd ingests.
func edgeListText(g *graph.Graph) []byte {
	b := make([]byte, 0, g.NumEdges()*12)
	g.Edges(func(u, v graph.NodeID) bool {
		b = strconv.AppendUint(b, uint64(u), 10)
		b = append(b, ' ')
		b = strconv.AppendUint(b, uint64(v), 10)
		b = append(b, '\n')
		return true
	})
	return b
}
