package main

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"gorder/internal/algos"
	"gorder/internal/graph"
)

// answer is the oracle's result for one query key, computed in
// process on the natural-order graph with the serial algos kernels.
type answer struct {
	summary map[string]float64
	top     []float64 // the largest per-vertex values, descending (top queries only)
	values  []float64 // the per-vertex vector (top queries only)
}

// maxTop is the largest top-K any planned query asks for.
const maxTop = 100

// oracle computes the expected answer of every distinct key in ops on
// g, spread over workers goroutines.
func oracle(g *graph.Graph, ops []queryOp, workers int) map[string]*answer {
	keys := make(map[string]queryOp)
	wantVec := make(map[string]bool)
	for _, q := range ops {
		keys[q.resultKey()] = q
		if q.Top > 0 {
			wantVec[q.resultKey()] = true
		}
	}
	todo := make(chan queryOp, len(keys)) // sized to the number of sends
	for _, q := range keys {
		todo <- q
	}
	close(todo)
	out := make(map[string]*answer, len(keys))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := range todo {
				a := expected(g, q, wantVec[q.resultKey()])
				mu.Lock()
				out[q.resultKey()] = a
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// expected runs the oracle kernel for q.
func expected(g *graph.Graph, q queryOp, keepVec bool) *answer {
	a := &answer{}
	var vec []float64
	switch q.Kernel {
	case "BFS", "SP":
		var dist []int32
		if q.Kernel == "BFS" {
			dist, _ = algos.BFSFrom(g, graph.NodeID(q.Source))
		} else {
			dist = algos.BellmanFord(g, graph.NodeID(q.Source))
		}
		var reached, ecc int32
		for _, d := range dist {
			if d != algos.Unreached {
				reached++
				ecc = max(ecc, d)
			}
		}
		a.summary = map[string]float64{"reached": float64(reached), "ecc": float64(ecc)}
		if keepVec {
			vec = make([]float64, len(dist))
			for i, d := range dist {
				vec[i] = float64(d)
			}
		}
	case "PR":
		rank := algos.PageRank(g, q.Iters, algos.DefaultDamping)
		var sum, mx float64
		for _, r := range rank {
			sum += r
			mx = max(mx, r)
		}
		a.summary = map[string]float64{"iters": float64(q.Iters), "sum": sum, "max": mx}
		vec = rank
	case "Tri":
		a.summary = map[string]float64{"triangles": float64(algos.TriangleCount(g))}
	default:
		panic("perfbench: no oracle for kernel " + q.Kernel)
	}
	if keepVec && vec != nil {
		a.values = vec
		s := slices.Clone(vec)
		slices.SortFunc(s, func(x, y float64) int { return -cmpFloat(x, y) })
		a.top = s[:min(maxTop, len(s))]
	}
	return a
}

func cmpFloat(x, y float64) int {
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	}
	return 0
}

// closeTo reports whether got matches want: exactly for counts and
// distances, to 1e-9 relative for PageRank's floating-point sums,
// whose rounding depends on the ordering the daemon ran over.
func closeTo(got, want float64) bool {
	if got == want {
		return true
	}
	return math.Abs(got-want) <= 1e-9*math.Max(math.Abs(want), 1e-300)
}

// checkAnswer compares one /query response with the oracle.
func checkAnswer(q queryOp, resp *queryResponse, a *answer) error {
	if a == nil {
		return fmt.Errorf("no oracle answer for %s", q.resultKey())
	}
	if resp.Kernel != q.Kernel {
		return fmt.Errorf("%s: response names kernel %q", q.resultKey(), resp.Kernel)
	}
	for k, want := range a.summary {
		got, ok := resp.Summary[k]
		if !ok || !closeTo(got, want) {
			return fmt.Errorf("%s: summary %s = %v, oracle %v", q.resultKey(), k, got, want)
		}
	}
	if q.Top == 0 {
		if len(resp.Values) != 0 {
			return fmt.Errorf("%s: %d values without top", q.resultKey(), len(resp.Values))
		}
		return nil
	}
	want := a.top[:min(q.Top, len(a.top))]
	if len(resp.Values) != len(want) {
		return fmt.Errorf("%s: %d top values, want %d", q.resultKey(), len(resp.Values), len(want))
	}
	for i, v := range resp.Values {
		if v.Node < 0 || v.Node >= len(a.values) || !closeTo(v.Value, a.values[v.Node]) {
			return fmt.Errorf("%s: top value %d of node %d is %v, oracle %v",
				q.resultKey(), i, v.Node, v.Value, a.values[max(0, min(v.Node, len(a.values)-1))])
		}
		if !closeTo(v.Value, want[i]) {
			return fmt.Errorf("%s: top value %d is %v, oracle's %d-th largest is %v",
				q.resultKey(), i, v.Value, i+1, want[i])
		}
	}
	return nil
}

// checkPermutation verifies that perm is a bijection on [0, n).
func checkPermutation(perm []int, n int) error {
	if len(perm) != n {
		return fmt.Errorf("permutation has %d entries for %d vertices", len(perm), n)
	}
	seen := make([]bool, n)
	for i, v := range perm {
		if v < 0 || v >= n || seen[v] {
			return fmt.Errorf("permutation entry %d = %d is out of range or repeated", i, v)
		}
		seen[v] = true
	}
	return nil
}
