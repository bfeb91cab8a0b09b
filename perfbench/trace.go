package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"time"

	"gorder/internal/algos"
	"gorder/internal/cache"
	"gorder/internal/core"
	"gorder/internal/exec"
	"gorder/internal/graph"
	"gorder/internal/mem"
	"gorder/internal/order"
	"gorder/internal/query"
	"gorder/internal/registry"
	"gorder/internal/server"
	"gorder/internal/store"
)

// The traced run replays the workload end to end, then times calls
// into each layer's public functions from this file, on the
// workload's own graph, the permutation the daemon served, and the
// workload's sources. Spans inside the daemon are not recorded here.

// layerUnits is the per-layer metric catalog with units.
var layerUnits = map[string]string{
	"registry.bfs_ms":              "ms",
	"registry.sp_ms":               "ms",
	"registry.pr_ms":               "ms",
	"exec.bfs_ms":                  "ms",
	"exec.sp_ms":                   "ms",
	"exec.pr_ms":                   "ms",
	"cache.bfs_miss_ratio.gorder":  "ratio",
	"cache.bfs_miss_ratio.natural": "ratio",
	"cache.pr_miss_ratio.gorder":   "ratio",
	"cache.pr_miss_ratio.natural":  "ratio",
	"order.score_F":                "count",
	"order.gorder_ms":              "ms",
	"order.extend_ms":              "ms",
	"order.repair_ms":              "ms",
	"server.job_queue_wait_ms":     "ms",
	"graph.parse_ms":               "ms",
	"graph.apply_edits_ms":         "ms",
	"graph.write_binary_ms":        "ms",
	"graph.relabel_ms":             "ms",
	"query.relabel_builds":         "count",
	"store.append_version_ms":      "ms",
	"store.put_order_ms":           "ms",
	"store.put_result_ms":          "ms",
	"store.manifest_bytes":         "bytes",
	"query.hit_us":                 "us",
	"query.miss_self_ms":           "ms",
	"query.cache_hit_ratio":        "ratio",
	"query.kernel_runs":            "count",
	"server.overhead_us":           "us",
	"fair.query_shed":              "count",
	"fair.jobs_shed":               "count",
	"server.http_errors":           "count",
}

// PR iterations for the timed PR calls and for the cache simulation.
const (
	tracePRIters = 10
	simPRIters   = 2
)

// timeMed runs fn reps times and returns the median wall time in ms.
func timeMed(reps int, fn func() error) (float64, error) {
	var xs []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		xs = append(xs, ms(time.Since(t0)))
	}
	return median(xs), nil
}

// missRatio runs the named traced kernel over g through the simulated
// hierarchy and returns its miss rate — an exact count, not a timing.
func missRatio(g *graph.Graph, kernel string) float64 {
	k, _ := registry.LookupKernel(kernel)
	h := cache.New(cache.SmallMachine())
	s := mem.NewSpace(h)
	k.RunTraced(g, algos.NewTracedGraph(g, s), s, registry.KernelParams{PageRankIters: simPRIters, SPSource: -1})
	return h.Report().MissRate()
}

// traceLayers measures every per-layer metric. daemonSide holds the
// values read from the daemon during the end-to-end part of the run.
func traceLayers(ctx context.Context, cfg config, v *daemonView, daemonSide map[string]float64) (*metricSet, error) {
	ms := newMetricSet()
	for name, val := range daemonSide {
		ms.set(name, layerUnits[name], val)
	}
	g := v.g
	reps := 5
	if g.NumEdges() > 500000 {
		reps = 1 // a 1M-edge Gorder takes seconds; one timing suffices
	}
	var perm order.Permutation
	t, err := timeMed(reps, func() error {
		var err error
		perm, err = registry.Compute(ctx, g, "gorder", registry.Options{})
		return err
	})
	if err != nil {
		return nil, err
	}
	ms.set("order.gorder_ms", "ms", t)
	if v.perm != nil { // read workloads: score the permutation the daemon served
		perm = make(order.Permutation, len(v.perm))
		for i, p := range v.perm {
			perm[i] = graph.NodeID(p)
		}
	}
	ms.set("order.score_F", "count", float64(order.Score(g, perm, core.DefaultWindow)))

	// graph
	t, err = timeMed(5, func() error { _, err := graph.ReadEdgeListStream(bytes.NewReader(v.text)); return err })
	if err != nil {
		return nil, err
	}
	ms.set("graph.parse_ms", "ms", t)
	var rg *graph.Graph
	t, _ = timeMed(5, func() error { rg = g.Relabel(perm); return nil })
	ms.set("graph.relabel_ms", "ms", t)
	req, add, del := editBatch(rngFor(cfg.seed, 5), g)
	var gNew *graph.Graph
	t, err = timeMed(5, func() error {
		var err error
		gNew, _, err = graph.ApplyEdits(g, req.AddNodes, add, del)
		return err
	})
	if err != nil {
		return nil, err
	}
	ms.set("graph.apply_edits_ms", "ms", t)
	t, err = timeMed(5, func() error { return gNew.WriteBinary(io.Discard) })
	if err != nil {
		return nil, err
	}
	ms.set("graph.write_binary_ms", "ms", t)
	t, err = timeMed(5, func() error {
		_, err := core.OrderIncrementalCtx(ctx, gNew, perm, nil, core.Options{})
		return err
	})
	if err != nil {
		return nil, err
	}
	ms.set("order.extend_ms", "ms", t)

	// registry and exec kernels on the relabelled graph, one worker
	// (the daemon's default -kernel-workers).
	srcs := v.sources[:min(5, len(v.sources))]
	kernelMs := make(map[int]float64) // natural BFS source -> registry BFS ms
	if err := timeKernels(ctx, ms, rg, perm, srcs, kernelMs); err != nil {
		return nil, err
	}

	// cache simulator: the paper's measure, gorder against natural.
	ms.set("cache.bfs_miss_ratio.gorder", "ratio", missRatio(rg, "BFS"))
	ms.set("cache.bfs_miss_ratio.natural", "ratio", missRatio(g, "BFS"))
	ms.set("cache.pr_miss_ratio.gorder", "ratio", missRatio(rg, "PR"))
	ms.set("cache.pr_miss_ratio.natural", "ratio", missRatio(g, "PR"))

	if err := timeStore(cfg, ms, gNew, perm); err != nil {
		return nil, err
	}
	if err := timeQueryTier(ctx, cfg, ms, v, perm, srcs, kernelMs); err != nil {
		return nil, err
	}
	for name := range layerUnits {
		if _, ok := ms.m[name]; !ok {
			ms.fail(fmt.Errorf("per-layer metric %s was not measured", name))
		}
	}
	return ms, ms.err
}

// timeKernels times registry.Kernel.Query and the exec engine at one
// worker for BFS, SP and PR over the relabelled graph rg.
func timeKernels(ctx context.Context, ms *metricSet, rg *graph.Graph, perm order.Permutation, srcs []int, bfsMs map[int]float64) error {
	var qs registry.QueryScratch
	var es exec.Scratch
	var regBFS, regSP, exBFS, exSP []float64
	bfs, _ := registry.LookupKernel("BFS")
	sp, _ := registry.LookupKernel("SP")
	pr, _ := registry.LookupKernel("PR")
	for _, s := range srcs {
		src := int(perm[s])
		t, err := timeMed(1, func() error {
			_, err := bfs.Query(ctx, rg, registry.KernelParams{SPSource: src, Workers: 1}, &qs)
			return err
		})
		if err != nil {
			return err
		}
		regBFS = append(regBFS, t)
		bfsMs[s] = t
		if t, err = timeMed(1, func() error {
			_, err := sp.Query(ctx, rg, registry.KernelParams{SPSource: src, Workers: 1}, &qs)
			return err
		}); err != nil {
			return err
		}
		regSP = append(regSP, t)
		if t, err = timeMed(1, func() error {
			_, _, err := exec.DOBFS(ctx, rg, graph.NodeID(src), 1, &es)
			return err
		}); err != nil {
			return err
		}
		exBFS = append(exBFS, t)
		if t, err = timeMed(1, func() error {
			_, err := exec.ShortestPaths(ctx, rg, graph.NodeID(src), 1, &es)
			return err
		}); err != nil {
			return err
		}
		exSP = append(exSP, t)
	}
	ms.set("registry.bfs_ms", "ms", median(regBFS))
	ms.set("registry.sp_ms", "ms", median(regSP))
	ms.set("exec.bfs_ms", "ms", median(exBFS))
	ms.set("exec.sp_ms", "ms", median(exSP))
	t, err := timeMed(3, func() error {
		_, err := pr.Query(ctx, rg, registry.KernelParams{PageRankIters: tracePRIters, Workers: 1}, &qs)
		return err
	})
	if err != nil {
		return err
	}
	ms.set("registry.pr_ms", "ms", t)
	t, err = timeMed(3, func() error {
		_, err := exec.PageRank(ctx, rg, tracePRIters, algos.DefaultDamping, 1, &es)
		return err
	})
	if err != nil {
		return err
	}
	ms.set("exec.pr_ms", "ms", t)
	return nil
}

// timeStore times the store's version, order and result writes on a
// store opened beside the daemons' data directories, so on the same
// filesystem.
func timeStore(cfg config, ms *metricSet, g *graph.Graph, perm order.Permutation) error {
	st, err := store.Open(store.Config{Dir: filepath.Join(cfg.runDir, "layer-store")})
	if err != nil {
		return err
	}
	defer st.Close()
	_, optKey, err := registry.OptionsKey("gorder", registry.Options{})
	if err != nil {
		return err
	}
	ext, err := core.OrderIncrementalCtx(context.Background(), g, perm, nil, core.Options{})
	if err != nil {
		return err
	}
	result := make([]byte, 8*g.NumNodes()+64) // a PR vector's payload size
	i := 0
	digest := func() string { return fmt.Sprintf("%016x", i) }
	t, err := timeMed(5, func() error {
		i++
		_, err := st.AppendVersion("layer", digest(), g, int64(g.NumEdges()*12))
		return err
	})
	if err != nil {
		return err
	}
	ms.set("store.append_version_ms", "ms", t)
	i = 0
	if t, err = timeMed(5, func() error { i++; return st.PutOrder(digest(), "gorder", optKey, ext) }); err != nil {
		return err
	}
	ms.set("store.put_order_ms", "ms", t)
	i = 0
	if t, err = timeMed(5, func() error { i++; return st.PutResult(digest(), "pr", "k", result) }); err != nil {
		return err
	}
	ms.set("store.put_result_ms", "ms", t)
	return nil
}

// timeQueryTier measures the query executor and the HTTP handler in
// process: an in-process server on its own store, the workload's graph
// uploaded through the handler and the served permutation installed as
// its gorder artifact.
func timeQueryTier(ctx context.Context, cfg config, ms *metricSet, v *daemonView, perm order.Permutation, srcs []int, bfsMs map[int]float64) error {
	st, err := store.Open(store.Config{Dir: filepath.Join(cfg.runDir, "layer-server")})
	if err != nil {
		return err
	}
	defer st.Close()
	srv := server.New(server.Config{Store: st, KernelWorkers: 1})
	h := srv.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/graphs?name=layer", bytes.NewReader(v.text)))
	if rec.Code != http.StatusCreated {
		return fmt.Errorf("in-process upload: HTTP %d %s", rec.Code, rec.Body)
	}
	var info graphInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		return err
	}
	_, optKey, err := registry.OptionsKey("gorder", registry.Options{})
	if err != nil {
		return err
	}
	if err := st.PutOrder(info.ID, "gorder", optKey, perm); err != nil {
		return err
	}

	run := func(src int) error {
		s := src
		_, qerr := srv.Query.Run(ctx, query.Request{Graph: "layer", Kernel: "BFS", Source: &s})
		if qerr != nil {
			return qerr
		}
		return nil
	}
	// The first query builds the relabelled graph; afterwards srcs[0]
	// is a cached key and the remaining sources are cold.
	if err := run(srcs[0]); err != nil {
		return err
	}
	hit, err := timeMed(201, func() error { return run(srcs[0]) })
	if err != nil {
		return err
	}
	ms.set("query.hit_us", "us", 1000*hit)
	body, _ := json.Marshal(queryRequest{Graph: "layer", Kernel: "BFS", Source: &srcs[0]})
	round, err := timeMed(201, func() error {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("in-process query: HTTP %d", rec.Code)
		}
		return nil
	})
	if err != nil {
		return err
	}
	ms.set("server.overhead_us", "us", 1000*(round-hit))
	var self []float64
	for _, s := range srcs[1:] {
		t, err := timeMed(1, func() error { return run(s) })
		if err != nil {
			return err
		}
		self = append(self, t-bfsMs[s])
	}
	ms.set("query.miss_self_ms", "ms", median(self))
	return nil
}
