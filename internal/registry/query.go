package registry

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"gorder/internal/algos"
	"gorder/internal/exec"
	"gorder/internal/graph"
)

// This file is the kernel catalog's query surface: the result type,
// canonical parameter hashing, and the per-kernel Query entry points
// the internal/query tier executes. Like ordering computation, every
// kernel-by-name decision stays inside this package — internal/query
// and internal/server only resolve descriptors through LookupKernel
// (CI greps that neither imports internal/algos directly).

// KernelResult is the value a queryable kernel produces: a scalar
// summary plus at most one per-vertex vector, indexed by the vertex
// IDs of the graph the kernel ran on. The query tier relabels vectors
// back to the caller's ID space, caches them, and materializes
// whole-graph results as store artifacts.
type KernelResult struct {
	// Kernel is the canonical kernel name ("BFS", "PR", ...).
	Kernel string
	// Summary holds the kernel's scalar outputs (reached count,
	// eccentricity, triangle count, ...). Always non-nil.
	Summary map[string]float64
	// At most one of the vectors is non-nil.
	Int32s []int32
	Int64s []int64
	Floats []float64
}

// MemBytes estimates the result's in-memory footprint, for the query
// tier's LRU byte accounting.
func (r *KernelResult) MemBytes() int64 {
	const entryOverhead = 64
	b := int64(entryOverhead + 48*len(r.Summary))
	b += 4 * int64(len(r.Int32s))
	b += 8 * int64(len(r.Int64s))
	b += 8 * int64(len(r.Floats))
	return b
}

// VectorLen returns the length of the result's per-vertex vector, or
// 0 for summary-only results.
func (r *KernelResult) VectorLen() int {
	switch {
	case r.Int32s != nil:
		return len(r.Int32s)
	case r.Int64s != nil:
		return len(r.Int64s)
	case r.Floats != nil:
		return len(r.Floats)
	}
	return 0
}

// Value returns the vector entry for vertex v as a float64 (distances
// and core numbers widen exactly; NQ sums stay well under 2^53).
func (r *KernelResult) Value(v int) float64 {
	switch {
	case r.Int32s != nil:
		return float64(r.Int32s[v])
	case r.Int64s != nil:
		return float64(r.Int64s[v])
	case r.Floats != nil:
		return r.Floats[v]
	}
	return 0
}

// QueryScratch is the set of reusable engine buffers (frontiers,
// contribution arrays) a queryable kernel may borrow, so a batch of
// same-graph queries pays their setup once instead of per request. The
// zero value is ready and a nil scratch is allowed; not safe for
// concurrent use.
type QueryScratch = exec.Scratch

// KernelOptionField names one KernelParams field in a kernel's
// QueryConsumes list.
type KernelOptionField string

// The KernelParams fields a queryable kernel can consume.
const (
	// KOptSource is the traversal source (KernelParams.SPSource).
	KOptSource KernelOptionField = "source"
	// KOptIters is the PageRank iteration count.
	KOptIters KernelOptionField = "iters"
)

// CanonicalKernelParams normalizes p for the named kernel: fields the
// kernel's Query does not consume are zeroed and consumed fields left
// at their documented-default sentinel are replaced by the default, so
// every spelling of the same effective query maps to one KernelParams
// value — the property the result caches key on. The source field is
// kept as given (the query tier resolves the hub default against the
// natural-order graph before keying, so the key never depends on the
// ordering in use).
func CanonicalKernelParams(name string, p KernelParams) (KernelParams, error) {
	k, ok := LookupKernel(name)
	if !ok {
		return KernelParams{}, fmt.Errorf("unknown kernel %q", name)
	}
	var c KernelParams
	for _, f := range k.QueryConsumes {
		switch f {
		case KOptSource:
			c.SPSource = p.SPSource
		case KOptIters:
			c.PageRankIters = p.PageRankIters
			if c.PageRankIters <= 0 {
				c.PageRankIters = algos.DefaultPageRankIters
			}
		}
	}
	return c, nil
}

// KernelKey returns the canonical params plus a short stable digest of
// (canonical kernel, canonical params) — the suffix the query result
// caches and store artifacts are keyed with, mirroring OptionsKey for
// ordering artifacts.
func KernelKey(name string, p KernelParams) (KernelParams, string, error) {
	c, err := CanonicalKernelParams(name, p)
	if err != nil {
		return KernelParams{}, "", err
	}
	k, _ := LookupKernel(name)
	enc := fmt.Sprintf("%s|src=%d|it=%d",
		strings.ToLower(k.Name), c.SPSource, c.PageRankIters)
	sum := sha256.Sum256([]byte(enc))
	return c, hex.EncodeToString(sum[:4]), nil
}

// QueryableKernelNames returns the canonical names of the kernels the
// query tier can serve, sorted.
func QueryableKernelNames() []string {
	var out []string
	for _, k := range kernels {
		if k.Query != nil {
			out = append(out, k.Name)
		}
	}
	return out
}

// HubSource resolves the default (-1) traversal source the way the SP
// kernel does: the vertex with the largest out-degree, lowest ID on
// ties. The query tier calls this on the natural-order graph, so the
// resolved source names the same logical vertex whatever ordering
// serves the query.
func HubSource(g *graph.Graph) graph.NodeID {
	return spSource(g, KernelParams{SPSource: -1})
}

// checkSource validates a per-source kernel's resolved source.
func checkSource(g *graph.Graph, p KernelParams) (graph.NodeID, error) {
	if p.SPSource < 0 || p.SPSource >= g.NumNodes() {
		return 0, fmt.Errorf("source %d out of range [0, %d)", p.SPSource, g.NumNodes())
	}
	return graph.NodeID(p.SPSource), nil
}

// ---- per-kernel query entry points --------------------------------------

func queryBFS(ctx context.Context, g *graph.Graph, p KernelParams, s *QueryScratch) (KernelResult, error) {
	return traverse(ctx, "BFS", g, p, s)
}

// querySP serves the paper's SP kernel: unit-weight shortest paths are
// BFS levels, so it shares BFS's traversal and differs only in name.
func querySP(ctx context.Context, g *graph.Graph, p KernelParams, s *QueryScratch) (KernelResult, error) {
	return traverse(ctx, "SP", g, p, s)
}

// traverse runs the exec engine's direction-optimising BFS from the
// resolved source and summarizes the hop distances.
func traverse(ctx context.Context, kernel string, g *graph.Graph, p KernelParams, s *QueryScratch) (KernelResult, error) {
	src, err := checkSource(g, p)
	if err != nil {
		return KernelResult{}, err
	}
	dist, reached, err := exec.DOBFS(ctx, g, src, p.Workers, s)
	if err != nil {
		return KernelResult{}, err
	}
	var ecc int32
	for _, d := range dist {
		if d > ecc {
			ecc = d
		}
	}
	return KernelResult{
		Kernel:  kernel,
		Summary: map[string]float64{"reached": float64(reached), "ecc": float64(ecc)},
		Int32s:  dist,
	}, nil
}

func queryPR(ctx context.Context, g *graph.Graph, p KernelParams, s *QueryScratch) (KernelResult, error) {
	iters := p.PageRankIters
	if iters <= 0 {
		iters = algos.DefaultPageRankIters
	}
	rank, err := exec.PageRank(ctx, g, iters, algos.DefaultDamping, p.Workers, s)
	if err != nil {
		return KernelResult{}, err
	}
	var sum, max float64
	for _, r := range rank {
		sum += r
		if r > max {
			max = r
		}
	}
	return KernelResult{
		Kernel:  "PR",
		Summary: map[string]float64{"iters": float64(iters), "sum": sum, "max": max},
		Floats:  rank,
	}, nil
}

func queryKcore(_ context.Context, g *graph.Graph, _ KernelParams, _ *QueryScratch) (KernelResult, error) {
	core := algos.CoreNumbers(g)
	var max int32
	for _, c := range core {
		if c > max {
			max = c
		}
	}
	return KernelResult{
		Kernel:  "Kcore",
		Summary: map[string]float64{"max_core": float64(max)},
		Int32s:  core,
	}, nil
}

func queryNQ(_ context.Context, g *graph.Graph, _ KernelParams, _ *QueryScratch) (KernelResult, error) {
	q := algos.NeighbourQuery(g)
	var sum, max int64
	for _, v := range q {
		sum += v
		if v > max {
			max = v
		}
	}
	return KernelResult{
		Kernel:  "NQ",
		Summary: map[string]float64{"sum": float64(sum), "max": float64(max)},
		Int64s:  q,
	}, nil
}

func queryTri(ctx context.Context, g *graph.Graph, p KernelParams, s *QueryScratch) (KernelResult, error) {
	tri, err := exec.TriangleCount(ctx, g, p.Workers, s)
	if err != nil {
		return KernelResult{}, err
	}
	return KernelResult{
		Kernel:  "Tri",
		Summary: map[string]float64{"triangles": float64(tri)},
	}, nil
}
