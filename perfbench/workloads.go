package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"gorder/internal/graph"
)

// clients is the number of closed-loop query clients on query-cold,
// where each query is a kernel run: the container's core count.
// query-hot's cached answers take microseconds in the daemon, so its
// latency is mostly the HTTP round trip and the wake-ups between the
// two processes. A second client there keeps both cores busy with the
// daemon, the client and the runtime contending for them: over ten
// runs its query_p99_ms spread by 0.27, against 0.09 to 0.23 in six
// sets of ten with one client.
const (
	clients    = 2
	hotClients = 1
)

// How many times a run sets up from scratch; setup_s is the median
// and the last set-up daemon serves the timed window. A read set-up
// orders a 1M-edge graph and takes seconds; a write-mix set-up is one
// small session, short enough that a single slow fsync moves it, so
// write-mix takes the median of more.
const (
	readSetupReps  = 3
	writeSetupReps = 7
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	gorderd  string // daemon binary
	runDir   string // fresh per run; removed on exit
}

// tally collects what the load clients observed. Latencies are kept
// for successful HTTP calls; answers are checked after the window and
// a wrong one turns a success into a failure.
type tally struct {
	mu        sync.Mutex
	lat       map[string][]float64
	attempted int
	failed    int
	notes     []string
}

func newTally() *tally { return &tally{lat: make(map[string][]float64)} }

// record counts one attempted operation: err == nil is a success whose
// latency d is kept under kind.
func (t *tally) record(kind string, d time.Duration, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failLocked(kind, err)
		return
	}
	t.lat[kind] = append(t.lat[kind], ms(d))
}

// attempt counts one attempted operation whose latency is not kept.
func (t *tally) attempt(kind string, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failLocked(kind, err)
	}
}

// wrong turns an already recorded success into a failure.
func (t *tally) wrong(kind string, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.failLocked(kind, err)
}

func (t *tally) failLocked(kind string, err error) {
	t.failed++
	if len(t.notes) < 5 {
		t.notes = append(t.notes, kind+": "+err.Error())
	}
}

// outcome is a finished run, ready to print.
type outcome struct {
	tally   *tally
	window  time.Duration // timed wall time the query rate is taken over
	queries int           // verified-correct queries
	setup   []float64     // seconds per set-up
	rssMB   float64
	layer   map[string]float64 // daemon-side per-layer values
	meta    map[string]any
}

// settle flushes the writes of earlier phases to disk and collects the
// load process's garbage, so that neither lands in the next timed
// phase.
func settle() {
	syscall.Sync()
	runtime.GC()
}

// ---- read workloads -----------------------------------------------------

// readInput is what query-cold and query-hot share: the served graph.
type readInput struct {
	text []byte
	g    *graph.Graph // the natural-order graph the daemon parses
}

func makeReadInput(seed uint64) (*readInput, error) {
	text := edgeListText(webGraph(readGraphNodes, seed))
	g, err := graph.ReadEdgeListBytes(text)
	if err != nil {
		return nil, err
	}
	return &readInput{text: text, g: g}, nil
}

// setupRead starts a daemon and makes it ready for a read workload:
// upload the graph, order it with gorder, run the warm-up queries.
// It returns the daemon, the set-up time and the order job's ID.
func setupRead(ctx context.Context, cfg config, in *readInput, warm []queryOp, answers map[string]*answer) (*daemon, time.Duration, string, error) {
	t0 := time.Now()
	d, err := startDaemon(cfg.gorderd, cfg.runDir)
	if err != nil {
		return nil, 0, "", err
	}
	id, err := func() (string, error) {
		info, err := d.upload(ctx, "web", in.text)
		if err != nil {
			return "", fmt.Errorf("upload: %w", err)
		}
		if info.Nodes != in.g.NumNodes() || info.Edges != in.g.NumEdges() {
			return "", fmt.Errorf("upload reports %d nodes %d edges, want %d %d",
				info.Nodes, info.Edges, in.g.NumNodes(), in.g.NumEdges())
		}
		id, err := d.submitOrder(ctx, "web")
		if err != nil {
			return "", fmt.Errorf("order submit: %w", err)
		}
		if _, err := d.waitJob(ctx, id); err != nil {
			return "", err
		}
		for _, q := range warm {
			var resp queryResponse
			if err := d.postJSON(ctx, "/query", q.request("web"), &resp); err != nil {
				return "", fmt.Errorf("warm-up %s: %w", q.resultKey(), err)
			}
			if err := checkAnswer(q, &resp, answers[q.resultKey()]); err != nil {
				return "", fmt.Errorf("warm-up: %w", err)
			}
		}
		return id, nil
	}()
	if err != nil {
		d.stop()
		return nil, 0, "", fmt.Errorf("set-up: %w", err)
	}
	return d, time.Since(t0), id, nil
}

// runRead runs query-cold (hot == false) or query-hot.
func runRead(ctx context.Context, cfg config, hot bool) (*outcome, *daemonView, error) {
	in, err := makeReadInput(cfg.seed)
	if err != nil {
		return nil, nil, err
	}
	n := in.g.NumNodes()
	var warm, ops []queryOp
	if hot {
		warm = hotShapes(cfg.seed, n)
		ops = hotOps(cfg.seed, warm, hotRepeats*cfg.seconds)
	} else {
		warm, ops = coldOps(cfg.seed, n, max(minColdQueries, 100*cfg.seconds))
		if err := distinctKeys(append(append([]queryOp(nil), warm...), ops...)); err != nil {
			return nil, nil, fmt.Errorf("query-cold operation list: %w", err)
		}
	}
	progress("inputs generated: %d nodes, %d edges, %d timed queries", n, in.g.NumEdges(), len(ops))
	answers := oracle(in.g, append(append([]queryOp(nil), warm...), ops...), clients)
	probe, err := planSessions(cfg.seed^0x9e3779b97f4a7c15, "probe", minWriteSessions, probeGraphNodes, probeEdits, 0)
	if err != nil {
		return nil, nil, err
	}
	progress("oracle answers computed, probe planned")
	// From here on the daemon does the work; the load process needs one
	// core at most, and more would only contend with the daemon.
	prevProcs := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prevProcs)

	out := &outcome{tally: newTally(), layer: map[string]float64{}}
	var d *daemon
	var orderID string
	for r := 0; r < readSetupReps; r++ {
		if d != nil {
			d.stop()
		}
		settle()
		var took time.Duration
		d, took, orderID, err = setupRead(ctx, cfg, in, warm, answers)
		if err != nil {
			return nil, nil, err
		}
		out.setup = append(out.setup, took.Seconds())
		progress("set-up %d took %.3fs", r+1, took.Seconds())
	}
	defer d.stop()

	perm, err := d.permutation(ctx, orderID)
	if err == nil {
		err = checkPermutation(perm, n)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("set-up order job: %w", err)
	}

	settle()
	before, err := d.metrics(ctx)
	if err != nil {
		return nil, nil, err
	}
	nClients := clients
	if hot {
		nClients = hotClients
	}
	resps, window := runQueries(ctx, d, "web", ops, nClients, out.tally)
	out.window = window
	after, err := d.metrics(ctx)
	if err != nil {
		return nil, nil, err
	}
	out.queries = checkQueries(ops, resps, answers, out.tally)
	progress("read window: %.2fs", window.Seconds())

	// Validity: every timed query must miss (cold) or hit (hot).
	hits := after["query_cache_hits_total"] - before["query_cache_hits_total"]
	misses := after["query_cache_misses_total"] - before["query_cache_misses_total"]
	ratio := float64(hits) / float64(max(1, hits+misses))
	if want := map[bool]float64{false: 0, true: 1}[hot]; ratio != want {
		return nil, nil, fmt.Errorf("invalid run: result-cache hit ratio %v over the window, want %v", ratio, want)
	}
	out.layer["query.cache_hit_ratio"] = ratio
	out.layer["query.kernel_runs"] = float64(after["query_kernel_runs_total"] - before["query_kernel_runs_total"])
	out.layer["query.relabel_builds"] = float64(after["query_relabel_builds_total"])

	// The write probe runs after the read window has closed, so it
	// cannot disturb read latency; it supplies the write-route metrics.
	settle()
	wv, err := runWriter(ctx, d, probe, false, out.tally)
	if err != nil {
		return nil, nil, err
	}
	progress("write probe done")
	if err := finishDaemon(ctx, d, out, wv); err != nil {
		return nil, nil, err
	}
	out.meta = map[string]any{
		"graph_nodes": n, "graph_edges": in.g.NumEdges(),
		"probe_graph_nodes": probe[0].Upload.Nodes, "probe_graph_edges": probe[0].Upload.Edges,
		"timed_queries": len(ops),
	}
	view := &daemonView{g: in.g, text: in.text, perm: perm, sources: sourcesOf(ops)}
	return out, view, nil
}

// daemonView is what the traced run needs from the end-to-end run: the
// natural graph, its upload bytes, and the permutation being served.
type daemonView struct {
	g       *graph.Graph
	text    []byte
	perm    []int
	sources []int
}

// sourcesOf returns the distinct BFS sources of ops, in order.
func sourcesOf(ops []queryOp) []int {
	var out []int
	seen := make(map[int]bool)
	for _, q := range ops {
		if q.Kernel == "BFS" && !seen[q.Source] {
			seen[q.Source] = true
			out = append(out, q.Source)
		}
	}
	return out
}

// runQueries drives ops from the closed-loop clients, which claim
// operations from one shared cursor. It returns each operation's
// response (nil on failure) and the wall time.
func runQueries(ctx context.Context, d *daemon, ref string, ops []queryOp, clients int, t *tally) ([]*queryResponse, time.Duration) {
	resps := make([]*queryResponse, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				var resp queryResponse
				t0 := time.Now()
				err := d.postJSON(ctx, "/query", ops[i].request(ref), &resp)
				t.record("query", time.Since(t0), err)
				if err == nil {
					resps[i] = &resp
				}
			}
		}()
	}
	wg.Wait()
	return resps, time.Since(start)
}

// checkQueries checks every answered query against the oracle and
// returns how many were correct.
func checkQueries(ops []queryOp, resps []*queryResponse, answers map[string]*answer, t *tally) int {
	ok := 0
	for i, resp := range resps {
		if resp == nil {
			continue
		}
		if err := checkAnswer(ops[i], resp, answers[ops[i].resultKey()]); err != nil {
			t.wrong("query", err)
			continue
		}
		ok++
	}
	return ok
}

// ---- write sessions -----------------------------------------------------

// writeView is what a writer run leaves for the checks and per-layer
// metrics: the job statuses it observed.
type writeView struct {
	orders  []jobStatus
	repairs []jobStatus
	readsOK int // reader queries whose answers checked out
}

// version is one lineage version the writer published to the reader.
type version struct {
	ref   string
	reads []readOp
}

// runWriter runs the write sessions one after another from a single
// writer client and, with reader, a reader client that sends the
// planned BFS queries against each version the writer publishes. Every
// job a session causes is awaited before its next write and before
// runWriter returns. Checks run after both clients have finished.
func runWriter(ctx context.Context, d *daemon, sessions []session, reader bool, t *tally) (*writeView, error) {
	wv := &writeView{}
	type check struct {
		kind string
		err  error
	}
	var checks []check // answers checked after the window
	type permJob struct {
		id    string
		nodes int
	}
	var perms []permJob

	published := 0
	for _, s := range sessions {
		published += 1 + len(s.Batches)
	}
	versions := make(chan version, published) // sized to the number of sends
	var readerDone sync.WaitGroup
	var readResps []*queryResponse
	var readOps []readOp
	if reader {
		readerDone.Add(1)
		go func() {
			defer readerDone.Done()
			for v := range versions {
				for _, r := range v.reads {
					src := r.Source
					var resp queryResponse
					t0 := time.Now()
					err := d.postJSON(ctx, "/query", queryRequest{Graph: v.ref, Kernel: "BFS", Source: &src}, &resp)
					t.record("query", time.Since(t0), err)
					readOps = append(readOps, r)
					if err != nil {
						readResps = append(readResps, nil)
					} else {
						readResps = append(readResps, &resp)
					}
				}
			}
		}()
	}
	publish := func(ref string, reads []readOp) {
		if reader {
			versions <- version{ref, reads}
		}
	}

	for _, s := range sessions {
		// Once a step fails, the session's remaining steps are counted
		// as attempted and failed: the operation count never varies.
		steps := 2 + len(s.Batches)
		done := 0
		abort := func(err error) {
			for ; done < steps; done++ {
				t.attempt("session", err)
			}
		}

		t0 := time.Now()
		info, err := d.upload(ctx, s.Name, s.Text)
		t.record("upload", time.Since(t0), err)
		done++
		if err != nil {
			abort(fmt.Errorf("%s: upload failed earlier", s.Name))
			continue
		}
		if info.Nodes != s.Upload.Nodes || info.Edges != s.Upload.Edges {
			checks = append(checks, check{"upload", fmt.Errorf("%s: upload reports %d/%d, want %d/%d",
				s.Name, info.Nodes, info.Edges, s.Upload.Nodes, s.Upload.Edges)})
		}

		t0 = time.Now()
		id, err := d.submitOrder(ctx, s.Name)
		var st jobStatus
		if err == nil {
			st, err = d.waitJob(ctx, id)
		}
		t.record("order", time.Since(t0), err)
		done++
		if err != nil {
			abort(fmt.Errorf("%s: order failed earlier", s.Name))
			continue
		}
		wv.orders = append(wv.orders, st)
		perms = append(perms, permJob{id, s.Upload.Nodes})
		publish(fmt.Sprintf("%s@v1", s.Name), s.Reads[0])

		for b, batch := range s.Batches {
			var resp editResponse
			t0 = time.Now()
			err := d.postJSON(ctx, "/graphs/"+s.Name+"/edges", batch, &resp)
			t.record("edit", time.Since(t0), err)
			done++
			if err != nil {
				abort(fmt.Errorf("%s: edit failed earlier", s.Name))
				break
			}
			if want := s.Expect[b]; resp.Graph.Nodes != want.Nodes || resp.Graph.Edges != want.Edges {
				checks = append(checks, check{"edit", fmt.Errorf("%s batch %d: response reports %d/%d, replay %d/%d",
					s.Name, b, resp.Graph.Nodes, resp.Graph.Edges, want.Nodes, want.Edges)})
			}
			if resp.RepairJob != "" {
				st, err := d.waitJob(ctx, resp.RepairJob)
				t.attempt("repair", err)
				if err == nil {
					wv.repairs = append(wv.repairs, st)
				}
			}
			publish(fmt.Sprintf("%s@v%d", s.Name, b+2), s.Reads[b+1])
		}
	}
	close(versions)
	readerDone.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	for _, c := range checks {
		t.wrong(c.kind, c.err)
	}
	for i, resp := range readResps {
		if resp == nil {
			continue
		}
		r := readOps[i]
		if resp.Summary["reached"] != r.Reached || resp.Summary["ecc"] != r.Ecc {
			t.wrong("query", fmt.Errorf("BFS from %d: reached/ecc %v/%v, oracle %v/%v",
				r.Source, resp.Summary["reached"], resp.Summary["ecc"], r.Reached, r.Ecc))
			continue
		}
		wv.readsOK++
	}
	for _, p := range perms {
		perm, err := d.permutation(ctx, p.id)
		if err == nil {
			err = checkPermutation(perm, p.nodes)
		}
		if err != nil {
			t.wrong("order", fmt.Errorf("job %s: %w", p.id, err))
		}
	}
	return wv, nil
}

// runWrite runs write-mix.
func runWrite(ctx context.Context, cfg config) (*outcome, *daemonView, error) {
	sessions, err := planSessions(cfg.seed, "wm", max(minWriteSessions, 10*cfg.seconds), writeGraphNodes, writeEdits, readsPerVersion)
	if err != nil {
		return nil, nil, err
	}
	warm, err := planSessions(cfg.seed^0x5bd1e995, "warm", 1, writeGraphNodes, 1, 0)
	if err != nil {
		return nil, nil, err
	}

	progress("sessions planned")
	prevProcs := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prevProcs)
	out := &outcome{tally: newTally(), layer: map[string]float64{}}
	var d *daemon
	for r := 0; r < writeSetupReps; r++ {
		if d != nil {
			d.stop()
		}
		settle()
		t0 := time.Now()
		d, err = startDaemon(cfg.gorderd, cfg.runDir)
		if err != nil {
			return nil, nil, err
		}
		// Warm-up: one session on a graph outside the timed list, so
		// first-touch costs are paid before the window.
		wt := newTally()
		if _, err := runWriter(ctx, d, warm, false, wt); err != nil || wt.failed > 0 {
			d.stop()
			return nil, nil, fmt.Errorf("set-up warm-up session failed: %v %v", err, wt.notes)
		}
		out.setup = append(out.setup, time.Since(t0).Seconds())
	}
	defer d.stop()

	settle()
	before, err := d.metrics(ctx)
	if err != nil {
		return nil, nil, err
	}
	start := time.Now()
	wv, err := runWriter(ctx, d, sessions, true, out.tally)
	if err != nil {
		return nil, nil, err
	}
	out.window = time.Since(start)
	out.queries = wv.readsOK
	progress("write window: %.2fs", out.window.Seconds())
	after, err := d.metrics(ctx)
	if err != nil {
		return nil, nil, err
	}
	if len(wv.repairs) == 0 {
		return nil, nil, errors.New("invalid run: the edit batches triggered no repair job")
	}
	hits := after["query_cache_hits_total"] - before["query_cache_hits_total"]
	misses := after["query_cache_misses_total"] - before["query_cache_misses_total"]
	out.layer["query.cache_hit_ratio"] = float64(hits) / float64(max(1, hits+misses))
	out.layer["query.kernel_runs"] = float64(after["query_kernel_runs_total"] - before["query_kernel_runs_total"])
	out.layer["query.relabel_builds"] = float64(after["query_relabel_builds_total"] - before["query_relabel_builds_total"])
	if err := finishDaemon(ctx, d, out, wv); err != nil {
		return nil, nil, err
	}
	out.meta = map[string]any{
		"graph_nodes": sessions[0].Upload.Nodes, "graph_edges": sessions[0].Upload.Edges,
		"sessions": len(sessions), "edit_batches_per_session": writeEdits,
		"reads_per_version": readsPerVersion, "repair_jobs": len(wv.repairs),
	}
	g, err := graph.ReadEdgeListBytes(sessions[0].Text)
	if err != nil {
		return nil, nil, err
	}
	return out, &daemonView{g: g, text: sessions[0].Text, sources: readSources(sessions[0])}, nil
}

// readSources returns the distinct reader sources of a session.
func readSources(s session) []int {
	var ops []queryOp
	for _, v := range s.Reads {
		for _, r := range v {
			ops = append(ops, queryOp{Kernel: "BFS", Source: r.Source})
		}
	}
	return sourcesOf(ops)
}

// finishDaemon runs the end-of-run checks and reads the daemon-side
// metrics: no job may be queued or running, and the counters, job
// timings, peak RSS and manifest size are recorded.
func finishDaemon(ctx context.Context, d *daemon, out *outcome, wv *writeView) error {
	m, err := d.metrics(ctx)
	if err != nil {
		return err
	}
	if m["queue_depth"] != 0 || m["workers_busy"] != 0 {
		return fmt.Errorf("invalid run: %d jobs queued and %d running at the end", m["queue_depth"], m["workers_busy"])
	}
	out.layer["fair.query_shed"] = float64(m["query_shed_total"])
	out.layer["fair.jobs_shed"] = float64(m["jobs_shed_total"])
	out.layer["server.http_errors"] = float64(m["http_errors_total"])
	var repair, wait []float64
	for _, st := range wv.repairs {
		repair = append(repair, st.durationMs())
		wait = append(wait, st.queueWaitMs())
	}
	for _, st := range wv.orders {
		wait = append(wait, st.queueWaitMs())
	}
	out.layer["order.repair_ms"] = 0
	if len(repair) > 0 {
		out.layer["order.repair_ms"] = median(repair)
	}
	out.layer["server.job_queue_wait_ms"] = median(wait)
	if out.layer["store.manifest_bytes"], err = func() (float64, error) {
		b, err := d.manifestBytes()
		return float64(b), err
	}(); err != nil {
		return err
	}
	if out.rssMB, err = d.peakRSSMB(); err != nil {
		return err
	}
	return nil
}
