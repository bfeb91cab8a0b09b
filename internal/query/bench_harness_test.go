package query

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"testing"
	"time"

	"gorder/internal/gen"
	"gorder/internal/registry"
	"gorder/internal/store"
)

// TestQueryLatencyHarness is the driver behind scripts/bench_query.sh:
// it runs a mixed single/batch kernel workload against the 1M-edge web
// graph and writes percentile latencies, cache-hit rates, and the
// ordering serving each scenario to the JSON file named by
// QUERY_BENCH_JSON. Skipped in normal test runs — it takes tens of
// seconds by design.
func TestQueryLatencyHarness(t *testing.T) {
	outPath := os.Getenv("QUERY_BENCH_JSON")
	if outPath == "" {
		t.Skip("set QUERY_BENCH_JSON=<path> to run the query latency harness")
	}
	nodes := 100000 // ~1M edges with DefaultWeb — the bench workload core uses
	if s := os.Getenv("QUERY_BENCH_NODES"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 1000 {
			t.Fatalf("QUERY_BENCH_NODES = %q: need an integer >= 1000", s)
		}
		nodes = v
	}

	g := gen.Web(nodes, gen.DefaultWeb, 0x90DE)
	t.Logf("workload: web graph n=%d m=%d", g.NumNodes(), g.NumEdges())
	src := newFakeSource()
	src.add("web", "bench", g)
	st, err := store.Open(store.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, _, err := st.AddGraph("bench", "web", g, g.MemoryBytes()); err != nil {
		t.Fatal(err)
	}
	orderStart := time.Now()
	perm, _, err := registry.ComputeObserved(context.Background(), g, "gorder", registry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, optKey, err := registry.OptionsKey("gorder", registry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutOrder("bench", "gorder", optKey, perm); err != nil {
		t.Fatal(err)
	}
	t.Logf("gorder ordering computed in %v", time.Since(orderStart))
	rcmPerm, _, err := registry.ComputeObserved(context.Background(), g, "rcm", registry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, rcmKey, err := registry.OptionsKey("rcm", registry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutOrder("bench", "rcm", rcmKey, rcmPerm); err != nil {
		t.Fatal(err)
	}

	// Budget sized so the cold scenarios' per-vertex vectors (~400 KB per
	// BFS result at n=100k) don't evict each other before the warm
	// replays — this harness measures the warm path, not eviction.
	newExec := func() *Executor {
		return New(Config{Source: src, Store: st, ResultBudget: 512 << 20})
	}
	ctx := context.Background()
	run := func(e *Executor, req Request) *Response {
		resp, qerr := e.Run(ctx, req)
		if qerr != nil {
			t.Fatalf("query %+v: %v", req, qerr)
		}
		return resp
	}

	type row struct {
		Name         string  `json:"name"`
		Queries      int     `json:"queries"`
		Ordering     string  `json:"ordering"`
		CacheHitRate float64 `json:"cache_hit_rate"`
		P50us        float64 `json:"p50_us"`
		P90us        float64 `json:"p90_us"`
		P99us        float64 `json:"p99_us"`
		MeanUs       float64 `json:"mean_us"`
		QPS          float64 `json:"qps"`
	}
	makeRow := func(name, ordering string, lat []float64, hits int) row {
		sorted := append([]float64(nil), lat...)
		sort.Float64s(sorted)
		pct := func(p float64) float64 {
			i := int(p*float64(len(sorted))+0.999999) - 1
			if i < 0 {
				i = 0
			}
			if i >= len(sorted) {
				i = len(sorted) - 1
			}
			return sorted[i]
		}
		var sum float64
		for _, v := range sorted {
			sum += v
		}
		mean := sum / float64(len(sorted))
		return row{
			Name: name, Queries: len(lat), Ordering: ordering,
			CacheHitRate: float64(hits) / float64(len(lat)),
			P50us:        pct(0.50), P90us: pct(0.90), P99us: pct(0.99),
			MeanUs: mean, QPS: 1e6 / mean,
		}
	}

	var rows []row

	// Every cold BFS scenario measures the SAME source set — BFS cost
	// varies a lot by source on a web graph, so distinct source sets
	// would make the ordering and batch comparisons incomparable. Each
	// scenario runs on its OWN executor, released (with a forced GC)
	// before the next one starts: a shared result cache would serve
	// later scenarios from memory, and executors kept alive across
	// scenarios would grow the heap so later timed loops pay more GC
	// than earlier ones. One untimed warmup query per scenario keeps the
	// one-off relabel build out of the timed samples.
	const coldN = 128
	const batchSize = 64
	warmup := nodes - 1
	scenarioDone := func(e **Executor) {
		*e = nil
		runtime.GC()
	}
	timeSingles := func(name, order string) row {
		e := newExec()
		defer scenarioDone(&e)
		run(e, Request{Graph: "web", Kernel: "BFS", Source: &warmup, Order: order})
		lat := make([]float64, coldN)
		hitsBefore := e.CacheHits()
		for i := range lat {
			s := i
			start := time.Now()
			resp := run(e, Request{Graph: "web", Kernel: "BFS", Source: &s, Order: order})
			lat[i] = float64(time.Since(start).Microseconds())
			if resp.Ordering.Method != order {
				t.Fatalf("%s served over %q", name, resp.Ordering.Method)
			}
		}
		return makeRow(name, order, lat, int(e.CacheHits()-hitsBefore))
	}
	coldRow := timeSingles("bfs_single_cold", "gorder")
	rows = append(rows, coldRow)
	rows = append(rows, timeSingles("bfs_single_cold", "natural"))

	// Single BFS, warm: populate untimed, then replay — pure cache hits.
	{
		e := newExec()
		lat := make([]float64, coldN)
		for i := range lat {
			s := i
			run(e, Request{Graph: "web", Kernel: "BFS", Source: &s, Order: "gorder"})
		}
		hitsBefore := e.CacheHits()
		for i := range lat {
			s := i
			start := time.Now()
			run(e, Request{Graph: "web", Kernel: "BFS", Source: &s, Order: "gorder"})
			lat[i] = float64(time.Since(start).Microseconds())
		}
		rows = append(rows, makeRow("bfs_single_warm", "gorder", lat, int(e.CacheHits()-hitsBefore)))
		scenarioDone(&e)
	}

	// Batched BFS, cold: the same sources in batches of 64 against one
	// (graph, ordering) group; per-query latency is batch time / size.
	timeBatches := func(name, ordering string, e *Executor, reqs []Request) row {
		var lat []float64
		hitsBefore := e.CacheHits()
		for b := 0; b < len(reqs)/batchSize; b++ {
			chunk := reqs[b*batchSize : (b+1)*batchSize]
			start := time.Now()
			items := e.RunBatch(ctx, chunk)
			perQuery := float64(time.Since(start).Microseconds()) / batchSize
			for i, it := range items {
				if it.Error != nil {
					t.Fatalf("%s batch %d item %d: %v", name, b, i, it.Error)
				}
				lat = append(lat, perQuery)
			}
		}
		return makeRow(name, ordering, lat, int(e.CacheHits()-hitsBefore))
	}
	singleOrderReqs := make([]Request, coldN)
	for i := range singleOrderReqs {
		s := i
		singleOrderReqs[i] = Request{Graph: "web", Kernel: "BFS", Source: &s, Order: "gorder"}
	}
	var batchRow row
	{
		e := newExec()
		run(e, Request{Graph: "web", Kernel: "BFS", Source: &warmup, Order: "gorder"})
		batchRow = timeBatches(fmt.Sprintf("bfs_batch%d_cold", batchSize), "gorder",
			e, singleOrderReqs)
		rows = append(rows, batchRow)
		scenarioDone(&e)
	}

	// Mixed-ordering workload under a graph budget that holds only ONE
	// relabeled graph at a time: singles alternating between two stored
	// orderings thrash residency (artifact reload + relabel on every
	// query), while a batch groups by ordering and pays each relabel
	// once per group. This is the coalescing the batch endpoint exists
	// for, so it defines the headline batch-vs-single speedup.
	ogBytes := int64(g.NumNodes())*16 + g.NumEdges()*8 + int64(g.NumNodes())*4
	tightExec := func() *Executor {
		return New(Config{Source: src, Store: st,
			ResultBudget: 512 << 20, GraphBudget: ogBytes * 3 / 2})
	}
	mixedReqs := make([]Request, coldN)
	for i := range mixedReqs {
		s := i
		ord := "gorder"
		if i%2 == 1 {
			ord = "rcm"
		}
		mixedReqs[i] = Request{Graph: "web", Kernel: "BFS", Source: &s, Order: ord}
	}
	var mixedSingleRow, mixedBatchRow row
	var singleRelabels, batchRelabels int64
	{
		e := tightExec()
		lat := make([]float64, coldN)
		for i, req := range mixedReqs {
			start := time.Now()
			run(e, req)
			lat[i] = float64(time.Since(start).Microseconds())
		}
		mixedSingleRow = makeRow("bfs_mixed_order_single_cold", "gorder+rcm", lat, 0)
		rows = append(rows, mixedSingleRow)
		singleRelabels = e.RelabelBuilds()
		scenarioDone(&e)
	}
	{
		e := tightExec()
		mixedBatchRow = timeBatches(fmt.Sprintf("bfs_mixed_order_batch%d_cold", batchSize),
			"gorder+rcm", e, mixedReqs)
		rows = append(rows, mixedBatchRow)
		batchRelabels = e.RelabelBuilds()
		scenarioDone(&e)
	}
	t.Logf("mixed-order relabel builds: %d single vs %d batched", singleRelabels, batchRelabels)

	// PageRank: cold (distinct iteration counts) then warm repeats of
	// the default — the materialized whole-graph path.
	{
		e := newExec()
		run(e, Request{Graph: "web", Kernel: "BFS", Source: &warmup, Order: "gorder"})
		var lat []float64
		hitsBefore := e.CacheHits()
		for _, iters := range []int{0, 10, 30} {
			start := time.Now()
			run(e, Request{Graph: "web", Kernel: "PR", Iters: iters, Order: "gorder"})
			lat = append(lat, float64(time.Since(start).Microseconds()))
		}
		rows = append(rows, makeRow("pr_cold", "gorder", lat, int(e.CacheHits()-hitsBefore)))

		lat = lat[:0]
		hitsBefore = e.CacheHits()
		for i := 0; i < coldN; i++ {
			start := time.Now()
			run(e, Request{Graph: "web", Kernel: "PR", Order: "gorder"})
			lat = append(lat, float64(time.Since(start).Microseconds()))
		}
		rows = append(rows, makeRow("pr_warm", "gorder", lat, int(e.CacheHits()-hitsBefore)))
		scenarioDone(&e)
	}

	speedup := mixedSingleRow.MeanUs / mixedBatchRow.MeanUs
	out := map[string]any{
		"generated_by": "scripts/bench_query.sh",
		"go":           runtime.Version(),
		"cores":        runtime.NumCPU(),
		"workload": fmt.Sprintf("web graph n=%d m=%d (gen.Web DefaultWeb seed 0x90DE), gorder artifact key %s",
			g.NumNodes(), g.NumEdges(), optKey),
		// Mixed-ordering singles vs the same requests batched: batching
		// coalesces artifact residency + relabeling per ordering group.
		"batch_vs_single_speedup":            speedup,
		"batch_vs_single_same_order_speedup": coldRow.MeanUs / batchRow.MeanUs,
		"mixed_order_relabel_builds": map[string]int64{
			"single": singleRelabels, "batch": batchRelabels,
		},
		"benchmarks": rows,
	}
	f, err := os.Create(outPath)
	if err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (batch-vs-single speedup %.2fx)", outPath, speedup)
}
