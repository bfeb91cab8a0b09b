package registry

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"gorder/internal/algos"
	"gorder/internal/gen"
	"gorder/internal/graph"
)

func TestQueryableKernelSet(t *testing.T) {
	want := []string{"BFS", "Kcore", "NQ", "PR", "SP", "Tri"}
	if got := QueryableKernelNames(); !reflect.DeepEqual(got, want) {
		t.Errorf("queryable kernels = %v, want %v", got, want)
	}
	// Order-dependent kernels must stay out: their outputs (visit
	// sequences, component label choices) change under relabeling, so
	// serving them from an arbitrary ordering would be wrong.
	for _, name := range []string{"DFS", "SCC", "WCC", "LP", "Diam", "DS"} {
		k, ok := LookupKernel(name)
		if !ok {
			t.Fatalf("kernel %s missing from catalog", name)
		}
		if k.Query != nil {
			t.Errorf("order-dependent kernel %s is queryable", name)
		}
	}
	// Whole-graph kernels are exactly the source-independent ones.
	for _, k := range kernels {
		if k.Query == nil {
			continue
		}
		hasSource := false
		for _, f := range k.QueryConsumes {
			if f == KOptSource {
				hasSource = true
			}
		}
		if k.WholeGraph == hasSource {
			t.Errorf("kernel %s: WholeGraph=%v but consumes-source=%v",
				k.Name, k.WholeGraph, hasSource)
		}
	}
}

func TestKernelKeyCanonicalization(t *testing.T) {
	// Unconsumed fields never split the key: a BFS query keys the same
	// whatever PR iteration count rides along.
	_, k1, err := KernelKey("BFS", KernelParams{SPSource: 3})
	if err != nil {
		t.Fatal(err)
	}
	_, k2, err := KernelKey("bfs", KernelParams{SPSource: 3, PageRankIters: 99, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Errorf("BFS keys split on unconsumed params: %s vs %s", k1, k2)
	}
	_, k3, _ := KernelKey("BFS", KernelParams{SPSource: 4})
	if k1 == k3 {
		t.Error("BFS keys for different sources collide")
	}

	// The PR default iteration count and its explicit spelling are one
	// key; a different count is another.
	cDefault, kDefault, _ := KernelKey("PR", KernelParams{})
	_, kExplicit, _ := KernelKey("PR", KernelParams{PageRankIters: algos.DefaultPageRankIters})
	if kDefault != kExplicit {
		t.Errorf("PR default-iters spellings split: %s vs %s", kDefault, kExplicit)
	}
	if cDefault.PageRankIters != algos.DefaultPageRankIters {
		t.Errorf("canonical PR iters = %d, want default %d",
			cDefault.PageRankIters, algos.DefaultPageRankIters)
	}
	if _, kOther, _ := KernelKey("PR", KernelParams{PageRankIters: 5}); kOther == kDefault {
		t.Error("PR keys for different iteration counts collide")
	}

	if _, _, err := KernelKey("NoSuchKernel", KernelParams{}); err == nil {
		t.Error("unknown kernel accepted")
	}
}

func TestQueryBFSMatchesDirectTraversal(t *testing.T) {
	g := gen.BarabasiAlbert(300, 3, 11)
	k, _ := LookupKernel("BFS")
	var scratch QueryScratch

	// Two runs from different sources through one scratch: results must
	// match fresh serial traversals, proving the scratch carries no
	// state between calls.
	for _, src := range []int{0, 17} {
		res, err := k.Query(context.Background(), g, KernelParams{SPSource: src}, &scratch)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := algos.BFSFrom(g, graph.NodeID(src))
		if !reflect.DeepEqual(res.Int32s, want) {
			t.Fatalf("src %d: scratch-based BFS diverges from fresh traversal", src)
		}
		reached := 0
		for _, d := range want {
			if d != algos.Unreached {
				reached++
			}
		}
		if int(res.Summary["reached"]) != reached {
			t.Errorf("src %d: reached = %v, want %d", src, res.Summary["reached"], reached)
		}
	}

	if _, err := k.Query(context.Background(), g, KernelParams{SPSource: g.NumNodes()}, &scratch); err == nil {
		t.Error("out-of-range source accepted")
	}
	if _, err := k.Query(context.Background(), g, KernelParams{SPSource: -1}, &scratch); err == nil {
		t.Error("unresolved hub sentinel accepted by the kernel")
	}
}

func TestHubSourceIsDegreeInvariant(t *testing.T) {
	g := gen.BarabasiAlbert(200, 4, 3)
	hub := HubSource(g)
	for v := 0; v < g.NumNodes(); v++ {
		if g.OutDegree(graph.NodeID(v)) > g.OutDegree(hub) {
			t.Fatalf("vertex %d out-degrees the hub %d", v, hub)
		}
		if g.OutDegree(graph.NodeID(v)) == g.OutDegree(hub) && graph.NodeID(v) < hub {
			t.Fatalf("hub %d is not the lowest-ID max-degree vertex (%d ties)", hub, v)
		}
	}
}

// TestQueryEngineParity pins the engine-backed query kernels to their
// serial oracles, exactly, at one worker and at two, on the exec
// parity generators.
func TestQueryEngineParity(t *testing.T) {
	graphs := []*graph.Graph{
		gen.ErdosRenyi(600, 3000, 11),
		gen.BarabasiAlbert(600, 4, 12),
		gen.Web(600, gen.WebConfig{}, 13),
	}
	ctx := context.Background()
	run := func(t *testing.T, name string, g *graph.Graph, p KernelParams) KernelResult {
		t.Helper()
		k, _ := LookupKernel(name)
		res, err := k.Query(ctx, g, p, new(QueryScratch))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return res
	}
	for gi, g := range graphs {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("graph%d/workers=%d", gi, workers), func(t *testing.T) {
				for _, src := range []int{0, 7} {
					wantBFS, reached := algos.BFSFrom(g, graph.NodeID(src))
					bfs := run(t, "BFS", g, KernelParams{SPSource: src, Workers: workers})
					if !reflect.DeepEqual(bfs.Int32s, wantBFS) || bfs.Summary["reached"] != float64(reached) {
						t.Fatalf("BFS from %d diverges from algos.BFSFrom", src)
					}
					sp := run(t, "SP", g, KernelParams{SPSource: src, Workers: workers})
					if !reflect.DeepEqual(sp.Int32s, algos.BellmanFord(g, graph.NodeID(src))) {
						t.Fatalf("SP from %d diverges from algos.BellmanFord", src)
					}
				}
				wantPR := algos.PageRank(g, algos.DefaultPageRankIters, algos.DefaultDamping)
				pr := run(t, "PR", g, KernelParams{Workers: workers})
				for v := range wantPR {
					if pr.Floats[v] != wantPR[v] {
						t.Fatalf("PR[%d] = %v, algos.PageRank %v", v, pr.Floats[v], wantPR[v])
					}
				}
				tri := run(t, "Tri", g, KernelParams{Workers: workers})
				if want := algos.TriangleCount(g); tri.Summary["triangles"] != float64(want) {
					t.Fatalf("Tri = %v, algos.TriangleCount %d", tri.Summary["triangles"], want)
				}
			})
		}
	}
}

// TestQueryHonoursDeadline: every engine-backed kernel, at one worker
// (the daemon default) and at two, returns its context's error instead
// of a result once the context is done.
func TestQueryHonoursDeadline(t *testing.T) {
	g := gen.BarabasiAlbert(3000, 8, 41)
	bg := context.Background()
	ctxs := []struct {
		name string
		open func() (context.Context, context.CancelFunc)
		want error
	}{
		{"cancelled", func() (context.Context, context.CancelFunc) {
			ctx, cancel := context.WithCancel(bg)
			cancel()
			return ctx, cancel
		}, context.Canceled},
		{"expired", func() (context.Context, context.CancelFunc) {
			return context.WithDeadline(bg, time.Now().Add(-time.Second))
		}, context.DeadlineExceeded},
	}
	kernels := []struct {
		name string
		p    KernelParams
	}{
		{"BFS", KernelParams{SPSource: 0}},
		{"SP", KernelParams{SPSource: 0}},
		{"PR", KernelParams{PageRankIters: 10}},
		{"Tri", KernelParams{}},
	}
	for _, kc := range kernels {
		k, _ := LookupKernel(kc.name)
		if !k.Parallel {
			t.Fatalf("%s does not run on the engine", kc.name)
		}
		for _, workers := range []int{1, 2} {
			p := kc.p
			p.Workers = workers
			for _, c := range ctxs {
				t.Run(fmt.Sprintf("%s/workers=%d/%s", kc.name, workers, c.name), func(t *testing.T) {
					ctx, cancel := c.open()
					defer cancel()
					res, err := k.Query(ctx, g, p, new(QueryScratch))
					if !errors.Is(err, c.want) {
						t.Fatalf("err = %v, want %v", err, c.want)
					}
					if res.Summary != nil || res.VectorLen() != 0 {
						t.Fatalf("done context still produced a result: %+v", res.Summary)
					}
				})
			}
		}
	}

	// A deadline expiring mid-run stops PageRank between chunks instead
	// of after all its iterations (minutes of work at this count).
	k, _ := LookupKernel("PR")
	for _, workers := range []int{1, 2} {
		ctx, cancel := context.WithTimeout(bg, 5*time.Millisecond)
		start := time.Now()
		_, err := k.Query(ctx, g, KernelParams{PageRankIters: 1_000_000, Workers: workers}, nil)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("workers=%d: mid-run expiry err = %v, want DeadlineExceeded", workers, err)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("workers=%d: cancellation took %v", workers, elapsed)
		}
	}
}
